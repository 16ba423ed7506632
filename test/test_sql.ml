(* Tests for the SQL COUNT frontend: parsing, compilation to FOC1 queries
   (Example 5.3), and agreement of the compiled queries with a directly
   computed reference on generated Customer/Order databases. *)

open Foc_logic
open Foc_sql
module DB = Foc_data.Db_gen

let preds = Pred.standard

let db () =
  let rng = Random.State.make [| 107 |] in
  DB.customer_order rng ~customers:30 ~orders:80 ~countries:4 ~cities:6

let consts = [ ("Berlin", DB.berlin_rel) ]

(* the generated structure carries a Berlin marker relation on top of the
   schema relations: extend the signature-side schema accordingly *)
let schema = Schema.customer_order

let test_parse () =
  match Sql_query.parse "SELECT Country, COUNT(Id) FROM Customer GROUP BY Country" with
  | Error e -> Alcotest.fail e
  | Ok q ->
      Alcotest.(check int) "two select items" 2 (List.length q.select);
      Alcotest.(check (list (pair string string))) "from" [ ("Customer", "Customer") ] q.from;
      Alcotest.(check int) "one group col" 1 (List.length q.group_by)

let test_parse_aliases_where () =
  let src =
    "SELECT C.FirstName, C.LastName, COUNT(O.Id) FROM Customer C, Order O \
     WHERE C.City = 'Berlin' AND O.CustomerId = C.Id GROUP BY C.FirstName, \
     C.LastName"
  in
  match Sql_query.parse src with
  | Error e -> Alcotest.fail e
  | Ok q ->
      Alcotest.(check (list (pair string string))) "aliases"
        [ ("C", "Customer"); ("O", "Order") ]
        q.from;
      Alcotest.(check int) "two conditions" 2 (List.length q.where);
      (* roundtrip through the printer *)
      let printed = Format.asprintf "%a" Sql_query.pp q in
      (match Sql_query.parse printed with
      | Ok q' -> Alcotest.(check bool) "pp roundtrip" true (q = q')
      | Error e -> Alcotest.fail ("roundtrip: " ^ e))

let test_parse_errors () =
  let bad s =
    match Sql_query.parse s with
    | Ok _ -> Alcotest.fail ("should not parse: " ^ s)
    | Error _ -> ()
  in
  bad "SELECT FROM Customer";
  bad "SELECT COUNT(Id FROM Customer";
  bad "SELECT Id Customer";
  bad "SELECT Id FROM Customer WHERE City = ";
  bad "SELECT Id FROM Customer GROUP Country"

let test_compile_shape () =
  let q =
    Compile.parse_to_query schema ~consts
      "SELECT Country, COUNT(Id) FROM Customer GROUP BY Country"
  in
  Alcotest.(check int) "one head var" 1 (List.length q.head_vars);
  Alcotest.(check int) "one head term" 1 (List.length q.head_terms);
  Alcotest.(check bool) "is FOC1" true (Query.is_foc1 q)

let test_compile_rejects () =
  let bad src =
    match Compile.parse_to_query schema ~consts src with
    | exception Compile.Error _ -> ()
    | _ -> Alcotest.fail ("should not compile: " ^ src)
  in
  bad "SELECT Nope, COUNT(Id) FROM Customer GROUP BY Nope";
  bad "SELECT City, COUNT(Id) FROM Nowhere GROUP BY City";
  (* selected column that is not grouped *)
  bad "SELECT City, COUNT(Id) FROM Customer GROUP BY Country";
  (* unknown literal marker *)
  bad "SELECT Country, COUNT(Id) FROM Customer WHERE City = 'Paris' GROUP BY Country"

(* reference computation straight from the tuple sets *)
let reference_counts_per_country (d : DB.customer_db) =
  let tbl = Hashtbl.create 8 in
  Foc_data.Tuple.Set.iter
    (fun t ->
      let country = t.(4) and id = t.(0) in
      let ids = Option.value ~default:[] (Hashtbl.find_opt tbl country) in
      if not (List.mem id ids) then Hashtbl.replace tbl country (id :: ids))
    (Foc_data.Structure.rel d.DB.db DB.customer_rel);
  tbl

let test_statement_1 () =
  (* the paper's first statement: customers per country *)
  let d = db () in
  let q =
    Compile.parse_to_query schema ~consts
      "SELECT Country, COUNT(Id) FROM Customer GROUP BY Country"
  in
  let rows = Foc_eval.Relalg.query preds d.DB.db q in
  let expected = reference_counts_per_country d in
  (* every row with a non-zero count matches the reference *)
  List.iter
    (fun (tuple, values) ->
      let country = tuple.(0) in
      match Hashtbl.find_opt expected country with
      | Some ids ->
          Alcotest.(check int)
            (Printf.sprintf "country %d" country)
            (List.length ids) values.(0)
      | None -> Alcotest.(check int) "empty country" 0 values.(0))
    rows

let test_statement_2 () =
  (* total customers and total orders, as one scalar query *)
  let d = db () in
  let q = Compile.scalar_counts schema [ "Customer"; "Order" ] in
  match Foc_eval.Relalg.query preds d.DB.db q with
  | [ ([||], values) ] ->
      Alcotest.(check (array int)) "totals" [| 30; 80 |] values
  | _ -> Alcotest.fail "expected a single scalar row"

let test_statement_3 () =
  (* orders per Berlin customer (by name) *)
  let d = db () in
  let q =
    Compile.parse_to_query schema ~consts
      "SELECT C.FirstName, C.LastName, COUNT(O.Id) FROM Customer C, Order O \
       WHERE C.City = 'Berlin' AND O.CustomerId = C.Id GROUP BY C.FirstName, \
       C.LastName"
  in
  Alcotest.(check bool) "is FOC1" true (Query.is_foc1 q);
  let rows = Foc_eval.Relalg.query preds d.DB.db q in
  (* reference: per (first, last) of Berlin customers, count orders whose
     customer shares that name pair and lives in Berlin *)
  let customers = Foc_data.Structure.rel d.DB.db DB.customer_rel in
  let orders = Foc_data.Structure.rel d.DB.db DB.order_rel in
  let berlin_names = Hashtbl.create 8 in
  Foc_data.Tuple.Set.iter
    (fun c ->
      if c.(3) = d.DB.berlin then
        Hashtbl.replace berlin_names (c.(1), c.(2)) ())
    customers;
  let expected_count (fn, ln) =
    let ids = ref [] in
    Foc_data.Tuple.Set.iter
      (fun o ->
        let cid = o.(3) in
        let matches =
          List.exists
            (fun c ->
              c.(0) = cid && c.(1) = fn && c.(2) = ln && c.(3) = d.DB.berlin)
            (Foc_data.Tuple.Set.elements customers)
        in
        if matches && not (List.mem o.(0) !ids) then ids := o.(0) :: !ids)
      orders;
    List.length !ids
  in
  Alcotest.(check bool) "some Berlin rows exist" true
    (Hashtbl.length berlin_names = 0 || rows <> []);
  List.iter
    (fun (tuple, values) ->
      Alcotest.(check bool) "row is a Berlin name" true
        (Hashtbl.mem berlin_names (tuple.(0), tuple.(1)));
      Alcotest.(check int) "order count" (expected_count (tuple.(0), tuple.(1))) values.(0))
    rows;
  Alcotest.(check int) "row per Berlin name" (Hashtbl.length berlin_names)
    (List.length rows)

let test_engine_agrees () =
  (* the localized engine gives the same answers as the baseline *)
  let d = db () in
  let q =
    Compile.parse_to_query schema ~consts
      "SELECT Country, COUNT(Id) FROM Customer GROUP BY Country"
  in
  let eng = Foc_nd.Engine.create () in
  let got = Foc_nd.Engine.run_query eng d.DB.db q in
  let expected = Foc_eval.Relalg.query preds d.DB.db q in
  Alcotest.(check bool) "rows agree" true (got = expected)

let () =
  Alcotest.run "foc_sql"
    [
      ( "parser",
        [
          Alcotest.test_case "simple" `Quick test_parse;
          Alcotest.test_case "aliases/where" `Quick test_parse_aliases_where;
          Alcotest.test_case "errors" `Quick test_parse_errors;
        ] );
      ( "compile",
        [
          Alcotest.test_case "shape" `Quick test_compile_shape;
          Alcotest.test_case "rejections" `Quick test_compile_rejects;
        ] );
      ( "example 5.3",
        [
          Alcotest.test_case "statement 1" `Quick test_statement_1;
          Alcotest.test_case "statement 2" `Quick test_statement_2;
          Alcotest.test_case "statement 3" `Quick test_statement_3;
          Alcotest.test_case "engine agreement" `Quick test_engine_agrees;
        ] );
    ]
