(* Tests for foc_data: signatures, structures, removal operator, string
   encodings, generators. *)

open Foc_data

let sig_ab = Signature.of_list [ ("E", 2); ("P", 1); ("Z", 0) ]

let test_signature () =
  Alcotest.(check int) "arity E" 2 (Signature.arity sig_ab "E");
  Alcotest.(check int) "cardinal" 3 (Signature.cardinal sig_ab);
  Alcotest.(check int) "size = sum of arities" 3 (Signature.size sig_ab);
  Alcotest.(check bool) "mem" true (Signature.mem sig_ab "P");
  Alcotest.(check (option int)) "unknown" None (Signature.arity_opt sig_ab "Q");
  Alcotest.check_raises "conflicting arity"
    (Invalid_argument "Signature.add: conflicting arity for E") (fun () ->
      ignore (Signature.add sig_ab "E" 3));
  Alcotest.(check bool) "subset" true
    (Signature.subset (Signature.of_list [ ("E", 2) ]) sig_ab);
  Alcotest.(check bool) "union" true
    (Signature.equal
       (Signature.union (Signature.of_list [ ("E", 2) ]) (Signature.of_list [ ("P", 1); ("Z", 0) ]))
       sig_ab)

let test_tuple () =
  Alcotest.(check bool) "lex order" true (Tuple.compare [| 1; 2 |] [| 1; 3 |] < 0);
  Alcotest.(check bool) "length first" true (Tuple.compare [| 9 |] [| 0; 0 |] < 0);
  Alcotest.(check bool) "equal" true (Tuple.equal [| 4; 5 |] [| 4; 5 |])

let mk_struct () =
  Structure.create sig_ab ~order:4
    [ ("E", [ [| 0; 1 |]; [| 1; 2 |] ]); ("P", [ [| 3 |] ]); ("Z", [ [||] ]) ]

let test_structure_basics () =
  let a = mk_struct () in
  Alcotest.(check int) "order" 4 (Structure.order a);
  Alcotest.(check int) "size" 8 (Structure.size a);
  Alcotest.(check bool) "mem E(0,1)" true (Structure.mem a "E" [| 0; 1 |]);
  Alcotest.(check bool) "not E(1,0)" false (Structure.mem a "E" [| 1; 0 |]);
  Alcotest.(check bool) "0-ary holds" true (Structure.mem a "Z" [||]);
  Alcotest.check_raises "unknown symbol"
    (Invalid_argument "Structure.rel: unknown symbol Q") (fun () ->
      ignore (Structure.rel a "Q"));
  Alcotest.check_raises "tuple out of range"
    (Invalid_argument "Structure: element out of universe in relation E")
    (fun () ->
      ignore (Structure.create sig_ab ~order:2 [ ("E", [ [| 0; 5 |] ]) ]))

let test_gaifman () =
  let a = mk_struct () in
  let g = Structure.gaifman a in
  Alcotest.(check int) "gaifman edges" 2 (Foc_graph.Graph.edge_count g);
  Alcotest.(check int) "dist 0-2" 2 (Structure.dist a 0 2);
  Alcotest.(check int) "3 isolated" Foc_graph.Bfs.infinity (Structure.dist a 0 3);
  Alcotest.(check bool) "dist_le" true (Structure.dist_le a 0 2 2);
  (* a ternary tuple creates a triangle *)
  let sg = Signature.of_list [ ("T", 3) ] in
  let b = Structure.create sg ~order:3 [ ("T", [ [| 0; 1; 2 |] ]) ] in
  Alcotest.(check int) "triangle" 3 (Foc_graph.Graph.edge_count (Structure.gaifman b))

let test_induced () =
  let a = mk_struct () in
  let sub, old_of_new = Structure.induced a [ 0; 1; 3 ] in
  Alcotest.(check int) "order" 3 (Structure.order sub);
  Alcotest.(check (array int)) "mapping" [| 0; 1; 3 |] old_of_new;
  Alcotest.(check bool) "kept E(0,1)" true (Structure.mem sub "E" [| 0; 1 |]);
  Alcotest.(check int) "dropped E(1,2)" 1 (Tuple.Set.cardinal (Structure.rel sub "E"));
  Alcotest.(check bool) "P on renumbered 3" true (Structure.mem sub "P" [| 2 |]);
  Alcotest.(check bool) "0-ary survives" true (Structure.mem sub "Z" [||])

let test_disjoint_union () =
  let a = mk_struct () in
  let u = Structure.disjoint_union a a in
  Alcotest.(check int) "order doubles" 8 (Structure.order u);
  Alcotest.(check int) "E doubles" 4 (Tuple.Set.cardinal (Structure.rel u "E"));
  Alcotest.(check bool) "shifted tuple" true (Structure.mem u "E" [| 4; 5 |])

let test_expand_reduct () =
  let a = mk_struct () in
  let b = Structure.expand a [ ("Q", 1, [ [| 0 |]; [| 2 |] ]) ] in
  Alcotest.(check bool) "new rel" true (Structure.mem b "Q" [| 2 |]);
  Alcotest.(check bool) "old rel kept" true (Structure.mem b "E" [| 0; 1 |]);
  let c = Structure.reduct b sig_ab in
  Alcotest.(check bool) "reduct drops Q" false (Signature.mem (Structure.signature c) "Q");
  Alcotest.(check bool) "reduct equals original" true (Structure.equal c a)

let test_isomorphic () =
  let p3 = Structure.of_graph (Foc_graph.Gen.path 3) in
  (* path 0-1-2 vs path with middle renamed: 1-0-2 *)
  let q =
    Structure.create Signature.graph ~order:3
      [ ("E", [ [| 1; 0 |]; [| 0; 1 |]; [| 0; 2 |]; [| 2; 0 |] ]) ]
  in
  Alcotest.(check bool) "isomorphic paths" true (Structure.isomorphic p3 q);
  let tri = Structure.of_graph (Foc_graph.Gen.cycle 3) in
  Alcotest.(check bool) "path vs triangle" false (Structure.isomorphic p3 tri)

let test_removal_shapes () =
  let a = mk_struct () in
  let b = Removal_op.apply a ~r:2 ~d:1 in
  Alcotest.(check int) "order shrinks" 3 (Structure.order b);
  (* E(0,1) with d=1 at position 2: goes to E~2 as unary (0) *)
  Alcotest.(check bool) "E~2 holds 0" true
    (Structure.mem b (Removal_op.tilde_name "E" [ 2 ]) [| 0 |]);
  (* E(1,2): position 1 held d, element 2 renames to 1 *)
  Alcotest.(check bool) "E~1 holds renamed 2" true
    (Structure.mem b (Removal_op.tilde_name "E" [ 1 ]) [| 1 |]);
  (* no surviving full-arity E tuples *)
  Alcotest.(check int) "E~ empty" 0
    (Tuple.Set.cardinal (Structure.rel b (Removal_op.tilde_name "E" [])));
  (* P(3) has no d: P~ keeps it, renamed to 2 *)
  Alcotest.(check bool) "P~ keeps 3 as 2" true
    (Structure.mem b (Removal_op.tilde_name "P" []) [| 2 |]);
  (* spheres: dist(1,0)=1 and dist(1,2)=1, element 3 unreachable *)
  Alcotest.(check bool) "S1 holds 0" true
    (Structure.mem b (Removal_op.sphere_name 1) [| 0 |]);
  Alcotest.(check bool) "S1 holds old-2" true
    (Structure.mem b (Removal_op.sphere_name 1) [| 1 |]);
  Alcotest.(check bool) "S2 misses old-3" false
    (Structure.mem b (Removal_op.sphere_name 2) [| 2 |])

let test_removal_rename_roundtrip () =
  for d = 0 to 4 do
    for x = 0 to 4 do
      if x <> d then
        Alcotest.(check int) "rename roundtrip" x
          (Removal_op.unrename ~d (Removal_op.rename ~d x))
    done
  done

let test_strings_roundtrip () =
  let alphabet = [ 'a'; 'b'; 'c' ] in
  let s = "abcabba" in
  let a = Strings.of_string ~alphabet s in
  Alcotest.(check int) "order" (String.length s) (Structure.order a);
  Alcotest.(check string) "roundtrip" s (Strings.to_string ~alphabet a);
  (* the order relation is reflexive-transitive: n(n+1)/2 tuples *)
  Alcotest.(check int) "order tuples" 28
    (Tuple.Set.cardinal (Structure.rel a Strings.le_name))

let test_customer_db () =
  let rng = Random.State.make [| 5 |] in
  let db = Db_gen.customer_order rng ~customers:20 ~orders:50 ~countries:3 ~cities:5 in
  Alcotest.(check int) "20 customers" 20
    (Tuple.Set.cardinal (Structure.rel db.db Db_gen.customer_rel));
  Alcotest.(check int) "50 orders" 50
    (Tuple.Set.cardinal (Structure.rel db.db Db_gen.order_rel));
  Alcotest.(check bool) "berlin marked" true
    (Structure.mem db.db Db_gen.berlin_rel [| db.berlin |]);
  (* order customer-ids reference customers *)
  Tuple.Set.iter
    (fun t -> Alcotest.(check bool) "fk valid" true (List.mem t.(3) db.customer_ids))
    (Structure.rel db.db Db_gen.order_rel)

let test_colored_digraph () =
  let rng = Random.State.make [| 9 |] in
  let g = Foc_graph.Gen.cycle 10 in
  let a = Db_gen.colored_digraph rng ~graph:g ~orient:`Both ~p_red:1.0 ~p_blue:0.0 ~p_green:0.5 in
  Alcotest.(check int) "both orientations" 20 (Tuple.Set.cardinal (Structure.rel a "E"));
  Alcotest.(check int) "all red" 10 (Tuple.Set.cardinal (Structure.rel a "R"));
  Alcotest.(check int) "no blue" 0 (Tuple.Set.cardinal (Structure.rel a "B"))

let prop_removal_size =
  QCheck.Test.make ~name:"removal keeps tuple counts" ~count:50
    QCheck.(pair (int_range 2 12) (int_range 0 2))
    (fun (n, r) ->
      let rng = Random.State.make [| n; r; 77 |] in
      let sign = Signature.of_list [ ("E", 2); ("P", 1) ] in
      let a = Db_gen.random_structure rng sign ~order:n ~tuples:(2 * n) in
      let d = Random.State.int rng n in
      let b = Removal_op.apply a ~r ~d in
      (* every original E tuple lands in exactly one E~I bucket *)
      let total =
        List.fold_left
          (fun acc positions ->
            acc
            + Tuple.Set.cardinal
                (Structure.rel b (Removal_op.tilde_name "E" positions)))
          0
          [ []; [ 1 ]; [ 2 ]; [ 1; 2 ] ]
      in
      total = Tuple.Set.cardinal (Structure.rel a "E"))

(* ---- the packed relation core against brute-force references ---- *)

let sig_0123 = Signature.of_list [ ("Z", 0); ("P", 1); ("E", 2); ("T", 3) ]

(* random structure of order [n] over arities 0-3; entries are drawn from a
   small range so repeated entries (R(x,x)) and duplicate draws are common *)
let random_structure rng n =
  let rels =
    List.map
      (fun (name, arity) ->
        let count = Random.State.int rng (3 * n + 2) in
        let range = max 1 (min n (1 + Random.State.int rng n)) in
        ( name,
          List.init count (fun _ ->
              Array.init arity (fun _ -> Random.State.int rng range)) ))
      (Signature.to_list sig_0123)
  in
  Structure.create sig_0123 ~order:n rels

(* member lists with repeats; mode 0 is empty, mode 1 the full universe *)
let random_members rng n =
  match Random.State.int rng 4 with
  | 0 -> []
  | 1 -> List.init n Fun.id
  | _ -> List.init (Random.State.int rng (2 * n + 1)) (fun _ -> Random.State.int rng n)

(* the old algorithm: filter every tuple, then renumber *)
let reference_induced a members =
  let old_of_new = List.sort_uniq Int.compare members in
  let index v =
    let rec go i = function
      | [] -> None
      | x :: rest -> if x = v then Some i else go (i + 1) rest
    in
    go 0 old_of_new
  in
  let rels =
    List.map
      (fun (name, _) ->
        ( name,
          List.filter_map
            (fun t ->
              let ids = Array.map index t in
              if Array.for_all Option.is_some ids then Some (Array.map Option.get ids)
              else None)
            (Tuple.Set.elements (Structure.rel a name)) ))
      (Signature.to_list (Structure.signature a))
  in
  ( Structure.create (Structure.signature a) ~order:(List.length old_of_new) rels,
    Array.of_list old_of_new )

let seeded name count prop =
  QCheck.Test.make ~name ~count
    QCheck.(pair (int_range 1 9) small_nat)
    (fun (n, seed) -> prop (Random.State.make [| n; seed; 15 |]) n)

(* [induced a members] against the reference, down to the packed rows,
   which fill the induced cores exactly *)
let induced_matches a members =
  let n = Structure.order a in
  let sub, old_of_new = Structure.induced a members in
  let want, want_map = reference_induced a members in
  let rows s name =
    let ({ Tuple.Set.width; nrows; data } : Tuple.Set.t) = Structure.rel s name in
    (Array.length data = width * nrows, Array.sub data 0 (width * nrows))
  in
  Structure.equal sub want
  && List.for_all
       (fun (name, _) ->
         let exact, got = rows sub name in
         exact && got = snd (rows want name))
       (Signature.to_list (Structure.signature a))
  && old_of_new = want_map
  && Array.for_all
       (fun v -> old_of_new.(Structure.new_of_old old_of_new v) = v)
       old_of_new
  && List.for_all
       (fun v -> List.mem v members || Structure.new_of_old old_of_new v = -1)
       (List.init (n + 2) (fun v -> v - 1))

(* inductions alternate between two structures of different orders, so
   the renumbering table is regrown and read with stale stamps left by
   the other structure *)
let prop_induced =
  seeded "induced = filter-and-renumber reference" 300 (fun rng n ->
      let a = random_structure rng n in
      let b = random_structure rng (n + 1 + Random.State.int rng 12) in
      if Random.State.bool rng then Structure.prepare a;
      List.for_all
        (fun s -> induced_matches s (random_members rng (Structure.order s)))
        [ a; b; a; b; a ])

(* one prepared structure induced concurrently on four domains, each with
   its own renumbering table *)
let prop_induced_parallel =
  seeded "induced on four domains = reference" 20 (fun rng n ->
      let a = random_structure rng (8 * n) in
      Structure.prepare a;
      let lists =
        Array.init 64 (fun _ -> random_members rng (Structure.order a))
      in
      Array.for_all Fun.id
        (Foc_par.tabulate ~jobs:4 (Array.length lists) (fun i ->
             induced_matches a lists.(i))))

let prop_tuples_with =
  seeded "tuples_with = filtering rel" 200 (fun rng n ->
      let a = random_structure rng n in
      List.for_all
        (fun (name, arity) ->
          let rows = Structure.rel a name in
          List.for_all
            (fun pos ->
              List.for_all
                (fun value ->
                  let got = ref [] in
                  Structure.tuples_with a name ~pos ~value (fun i ->
                      got := Tuple.Set.row rows i :: !got);
                  List.rev !got
                  = List.filter
                      (fun t -> t.(pos) = value)
                      (Tuple.Set.elements rows))
                (List.init (n + 1) Fun.id))
            (List.init arity Fun.id))
        (Signature.to_list sig_0123))

let prop_updates =
  seeded "add/remove_tuples = list model" 200 (fun rng n ->
      let a = ref (random_structure rng n) in
      let model = ref (Tuple.Set.elements (Structure.rel !a "E")) in
      let ok = ref true in
      for _ = 1 to 1 + Random.State.int rng 12 do
        let tuples =
          List.init (Random.State.int rng 4) (fun _ ->
              [| Random.State.int rng n; Random.State.int rng n |])
        in
        if Random.State.bool rng then begin
          a := Structure.add_tuples !a "E" tuples;
          model := List.sort_uniq Tuple.compare (tuples @ !model)
        end
        else begin
          a := Structure.remove_tuples !a "E" tuples;
          model := List.filter (fun t -> not (List.mem t tuples)) !model
        end;
        if Random.State.bool rng then Structure.prepare !a;
        ok :=
          !ok
          && Tuple.Set.elements (Structure.rel !a "E") = !model
          && List.for_all (Structure.mem !a "E") !model
          && List.for_all
               (fun t -> Structure.mem !a "E" t = List.mem t !model)
               tuples
      done;
      !ok)

(* the list-based A *_r d: bucket every projected, renamed tuple by its
   R~I symbol, then build the structure from the buckets *)
let reference_removal a ~r ~d =
  let rename x = if x < d then x else x - 1 in
  let buckets = Hashtbl.create 64 in
  let push name tup =
    let old = Option.value ~default:[] (Hashtbl.find_opt buckets name) in
    Hashtbl.replace buckets name (tup :: old)
  in
  List.iter
    (fun (name, k) ->
      Tuple.Set.iter
        (fun tup ->
          let positions = ref [] in
          for i = k downto 1 do
            if tup.(i - 1) = d then positions := i :: !positions
          done;
          let keep =
            Array.of_list
              (List.filteri (fun i _ -> tup.(i) <> d) (Array.to_list tup))
          in
          push
            (Removal_op.tilde_name name !positions)
            (Array.map rename keep))
        (Structure.rel a name))
    (Signature.to_list (Structure.signature a));
  let dist_tbl =
    Foc_graph.Bfs.ball_tbl (Structure.gaifman a) ~centres:[ d ] ~radius:r
  in
  List.iter
    (fun i ->
      Hashtbl.replace buckets (Removal_op.sphere_name i)
        (Hashtbl.fold
           (fun v dv acc ->
             if v <> d && dv <= i then [| rename v |] :: acc else acc)
           dist_tbl []))
    (List.init r (fun i -> i + 1));
  let sign = Removal_op.signature_r (Structure.signature a) r in
  Structure.create sign ~order:(Structure.order a - 1)
    (List.map
       (fun (name, _) ->
         (name, Option.value ~default:[] (Hashtbl.find_opt buckets name)))
       (Signature.to_list sign))

(* [apply] against the reference at every d, and the Gaifman graph it
   installs against one rebuilt from the reference's relations *)
let prop_removal_reference =
  seeded "removal = list-based reference, Gaifman included" 200 (fun rng n ->
      let a = random_structure rng (n + 1) in
      let r = 1 + Random.State.int rng 3 in
      List.for_all
        (fun d ->
          let got = Removal_op.apply a ~r ~d in
          let want = reference_removal a ~r ~d in
          Structure.equal got want
          && Foc_graph.Graph.equal (Structure.gaifman got)
               (Structure.gaifman want))
        (List.init (n + 1) Fun.id))

let prop_store_roundtrip =
  seeded "Store encode/decode keeps equal and isomorphic" 40 (fun rng n ->
      let a = random_structure rng n in
      let dir = Filename.temp_file "foc_test_data" ".d" in
      Sys.remove dir;
      let snap =
        { Foc.Store.version = 0; structure = a; graph = None; covers = [];
          hanfs = []; stats = None }
      in
      let path = Foc.Store.save ~dir snap in
      let loaded = Foc.Store.load ~dir in
      Sys.remove path;
      Sys.rmdir dir;
      match loaded with
      | Ok s ->
          Structure.equal s.Foc.Store.structure a
          && Structure.isomorphic s.Foc.Store.structure a
      | Error _ -> false)

let () =
  Alcotest.run "foc_data"
    [
      ( "signature",
        [
          Alcotest.test_case "basics" `Quick test_signature;
          Alcotest.test_case "tuples" `Quick test_tuple;
        ] );
      ( "structure",
        [
          Alcotest.test_case "basics" `Quick test_structure_basics;
          Alcotest.test_case "gaifman" `Quick test_gaifman;
          Alcotest.test_case "induced" `Quick test_induced;
          Alcotest.test_case "disjoint union" `Quick test_disjoint_union;
          Alcotest.test_case "expand/reduct" `Quick test_expand_reduct;
          Alcotest.test_case "isomorphic" `Quick test_isomorphic;
        ] );
      ( "removal",
        [
          Alcotest.test_case "shapes" `Quick test_removal_shapes;
          Alcotest.test_case "rename roundtrip" `Quick test_removal_rename_roundtrip;
          QCheck_alcotest.to_alcotest prop_removal_size;
          QCheck_alcotest.to_alcotest prop_removal_reference;
        ] );
      ( "packed core",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_induced;
            prop_induced_parallel;
            prop_tuples_with;
            prop_updates;
            prop_store_roundtrip;
          ] );
      ("strings", [ Alcotest.test_case "roundtrip" `Quick test_strings_roundtrip ]);
      ( "db_gen",
        [
          Alcotest.test_case "customer/order" `Quick test_customer_db;
          Alcotest.test_case "colored digraph" `Quick test_colored_digraph;
        ] );
    ]
