(* The bounded-degree Hanf substrate: canonical ball types, type grouping,
   and the Hanf engine back-end (predecessor strategy [16]). *)

open Foc_logic
module Structure = Foc_data.Structure

let preds = Pred.standard
let parse s = Parser.formula preds s
let parse_t s = Parser.term preds s

let coloured seed g =
  let rng = Random.State.make [| seed |] in
  Foc_data.Db_gen.colored_digraph rng ~graph:g ~orient:`Both ~p_red:0.3
    ~p_blue:0.4 ~p_green:0.3

(* ---------------- canonical keys ---------------- *)

let test_key_distinguishes () =
  let a = Structure.of_graph (Foc_graph.Gen.path 7) in
  (* the endpoint's 1-ball (2 nodes) differs from the midpoint's (3 nodes) *)
  let k_end = Foc_bd.Ball_type.ball_key a ~centre:0 ~r:1 in
  let k_mid = Foc_bd.Ball_type.ball_key a ~centre:3 ~r:1 in
  Alcotest.(check bool) "end vs mid differ" true (k_end <> k_mid);
  (* two interior vertices of a long path share their type *)
  let k_mid2 = Foc_bd.Ball_type.ball_key a ~centre:2 ~r:1 in
  Alcotest.(check string) "interior types equal" k_mid k_mid2

let test_key_root_matters () =
  (* same underlying ball, different root: a path of 3 rooted at the end vs
     rooted in the middle *)
  let a = Structure.of_graph (Foc_graph.Gen.path 3) in
  let k0 = Foc_bd.Ball_type.canonical_key a ~centre:0 in
  let k1 = Foc_bd.Ball_type.canonical_key a ~centre:1 in
  let k2 = Foc_bd.Ball_type.canonical_key a ~centre:2 in
  Alcotest.(check bool) "root position matters" true (k0 <> k1);
  Alcotest.(check string) "symmetric roots agree" k0 k2

let test_key_iso_invariant () =
  (* permuting a structure leaves the multiset of ball keys unchanged *)
  let rng = Random.State.make [| 31 |] in
  for _ = 1 to 10 do
    let g = Foc_graph.Gen.random_bounded_degree rng 14 3 in
    let a = coloured (Random.State.int rng 1000) g in
    let n = Structure.order a in
    let perm = Array.init n (fun i -> i) in
    for i = n - 1 downto 1 do
      let j = Random.State.int rng (i + 1) in
      let t = perm.(i) in
      perm.(i) <- perm.(j);
      perm.(j) <- t
    done;
    let b =
      Structure.create (Structure.signature a) ~order:n
        (List.map
           (fun (name, _) ->
             ( name,
               Foc_data.Tuple.Set.elements (Structure.rel a name)
               |> List.map (Array.map (fun v -> perm.(v))) ))
           (Foc_data.Signature.to_list (Structure.signature a)))
    in
    for v = 0 to n - 1 do
      Alcotest.(check string)
        (Printf.sprintf "key of %d = key of image %d" v perm.(v))
        (Foc_bd.Ball_type.ball_key a ~centre:v ~r:2)
        (Foc_bd.Ball_type.ball_key b ~centre:perm.(v) ~r:2)
    done
  done

let test_key_colours_matter () =
  let g = Foc_graph.Gen.path 3 in
  let sign = Foc_data.Signature.of_list [ ("E", 2); ("B", 1) ] in
  let edges =
    List.concat_map
      (fun (u, v) -> [ [| u; v |]; [| v; u |] ])
      (Foc_graph.Graph.edges g)
  in
  let plain = Structure.create sign ~order:3 [ ("E", edges) ] in
  let marked =
    Structure.create sign ~order:3 [ ("E", edges); ("B", [ [| 0 |] ]) ]
  in
  Alcotest.(check bool) "unary relations distinguish" true
    (Foc_bd.Ball_type.ball_key plain ~centre:0 ~r:1
    <> Foc_bd.Ball_type.ball_key marked ~centre:0 ~r:1)

(* ---------------- type grouping ---------------- *)

let test_grid_has_few_types () =
  let a = Structure.of_graph (Foc_graph.Gen.grid 12 12) in
  let count = Foc_bd.Hanf.type_count a ~r:1 in
  (* corners, edges, interior — 3 positions, plus near-border variants *)
  Alcotest.(check bool)
    (Printf.sprintf "grid r=1 types small (%d)" count)
    true (count <= 9);
  Alcotest.(check int) "classes partition" 144
    (List.fold_left
       (fun acc (_, members) -> acc + List.length members)
       0
       (Foc_bd.Hanf.classes a ~r:1))

let test_cycle_single_type () =
  let a = Structure.of_graph (Foc_graph.Gen.cycle 20) in
  Alcotest.(check int) "vertex-transitive" 1 (Foc_bd.Hanf.type_count a ~r:2)

(* ---------------- pinned partitions ---------------- *)

(* The partitions [Hanf.classes] returns (classes in order, members in
   order) and their [type_count]s, pinned as digests so that a rewrite of
   the keying cannot silently merge, split or reorder classes. The inputs
   mirror the sweep benchmark's generators. *)
let pin_inputs () =
  let gen seed n family g =
    let rng = Random.State.make [| seed; n; family |] in
    Foc_data.Db_gen.colored_digraph rng ~graph:(g rng) ~orient:`Both
      ~p_red:0.3 ~p_blue:0.4 ~p_green:0.3
  in
  [
    ( "bd3",
      gen 1 500 3 (fun rng -> Foc_graph.Gen.random_bounded_degree rng 500 3)
    );
    ("tree", gen 1 500 1 (fun rng -> Foc_graph.Gen.random_tree rng 500));
    ("grid", Structure.of_graph (Foc_graph.Gen.grid 12 12));
    ("cycle", Structure.of_graph (Foc_graph.Gen.cycle 20));
  ]

let partition_digest classes =
  let b = Buffer.create 4096 in
  List.iter
    (fun (_, members) ->
      List.iter (fun v -> Buffer.add_string b (string_of_int v ^ ",")) members;
      Buffer.add_char b '|')
    classes;
  Digest.to_hex (Digest.string (Buffer.contents b))

let pinned =
  [
    ("bd3 r=1", ("0f80caabee98951893483b17c82ebe91", 323));
    ("bd3 r=2", ("ab6479224dc6296dd1f2df31aa094009", 489));
    ("bd3 r=3", ("ab6479224dc6296dd1f2df31aa094009", 489));
    ("tree r=1", ("68bd66052ece3d6445cda77e691c1d1b", 254));
    ("tree r=2", ("9eb3aa2af283c436296c4ac5d75108f7", 468));
    ("tree r=3", ("529f75b68e70c1ab9f3327f825798657", 488));
    ("grid r=1", ("76c4099a7fa838e8fd8e517e36edb975", 3));
    ("grid r=2", ("626a6cd11f11b39445cbb52b9bfbb28d", 6));
    ("grid r=3", ("c6be127406367d9523c477a4b4994e81", 10));
    ("cycle r=1", ("eec8bee4c4284919a999eb29540ff224", 1));
    ("cycle r=2", ("eec8bee4c4284919a999eb29540ff224", 1));
    ("cycle r=3", ("eec8bee4c4284919a999eb29540ff224", 1))
  ]

let test_pinned_partitions () =
  List.iter
    (fun (name, a) ->
      List.iter
        (fun r ->
          let cls = Foc_bd.Hanf.classes a ~r in
          let got = (partition_digest cls, Foc_bd.Hanf.type_count a ~r) in
          let label = Printf.sprintf "%s r=%d" name r in
          Alcotest.(check (pair string int))
            label (List.assoc label pinned) got)
        [ 1; 2; 3 ])
    (pin_inputs ())

(* the rooted r-ball of [v], its centre marked by a fresh unary symbol *)
let rooted_ball a v ~r =
  let sub, c = Foc_bd.Ball_type.extract a ~centre:v ~r in
  Structure.expand sub [ ("$centre", 1, [ [| c |] ]) ]

let random_bd (n, seed) =
  let rng = Random.State.make [| n; seed |] in
  coloured seed (Foc_graph.Gen.random_bounded_degree rng n 3)

(* uncoloured, so that many balls are isomorphic *)
let random_forest (n, seed) =
  let rng = Random.State.make [| n; seed |] in
  Structure.of_graph (Foc_graph.Gen.random_tree rng n)

let prop_classes_sound =
  QCheck.Test.make ~name:"class members have isomorphic rooted balls"
    ~count:20
    QCheck.(triple (int_range 8 40) (int_range 0 10000) (int_range 1 2))
    (fun (n, seed, r) ->
      let a = random_bd (n, seed) in
      List.for_all
        (fun (_, members) ->
          match members with
          | [] -> false
          | rep :: rest ->
              let b = rooted_ball a rep ~r in
              Structure.order b > 8
              || List.for_all
                   (fun v -> Structure.isomorphic b (rooted_ball a v ~r))
                   rest)
        (Foc_bd.Hanf.classes a ~r))

let prop_classes_complete_on_forests =
  QCheck.Test.make ~name:"forests: isomorphic rooted balls share a class"
    ~count:10
    QCheck.(triple (int_range 8 24) (int_range 0 10000) (int_range 1 2))
    (fun (n, seed, r) ->
      let a = random_forest (n, seed) in
      let cls = Array.make n (-1) in
      List.iteri
        (fun i (_, members) -> List.iter (fun v -> cls.(v) <- i) members)
        (Foc_bd.Hanf.classes a ~r);
      let balls = Array.init n (fun v -> rooted_ball a v ~r) in
      let ok = ref true in
      for u = 0 to n - 1 do
        for v = u + 1 to n - 1 do
          if
            Structure.order balls.(u) <= 8
            && Structure.isomorphic balls.(u) balls.(v)
          then ok := !ok && cls.(u) = cls.(v)
        done
      done;
      !ok)

let prop_classes_jobs_invariant =
  QCheck.Test.make ~name:"classes ~jobs:1 = classes ~jobs:2" ~count:20
    QCheck.(triple (int_range 8 80) (int_range 0 10000) (int_range 1 3))
    (fun (n, seed, r) ->
      let a = random_bd (n, seed) in
      Foc_bd.Hanf.classes ~jobs:1 a ~r = Foc_bd.Hanf.classes ~jobs:2 a ~r)

let prop_ball_key_is_canonical_key =
  QCheck.Test.make ~name:"ball_key = canonical_key of the extracted ball"
    ~count:20
    QCheck.(triple (int_range 8 40) (int_range 0 10000) (int_range 1 2))
    (fun (n, seed, r) ->
      let a = random_bd (n, seed) in
      List.for_all
        (fun v ->
          let sub, c = Foc_bd.Ball_type.extract a ~centre:v ~r in
          Foc_bd.Ball_type.ball_key a ~centre:v ~r
          = Foc_bd.Ball_type.canonical_key sub ~centre:c)
        (List.init n Fun.id))

(* ---------------- refinement filter ---------------- *)

(* The partition every element's exact key gives: [Ball_type.ball_key]
   over the whole universe, grouped in element order. [Hanf.classes] keys
   only the elements refinement cannot single out, and must return the
   same classes in the same order, with the same keys on every class of
   two or more members (a singleton's key is just unique). *)
let oracle_classes a ~r =
  let tbl = Hashtbl.create 64 and classes = ref [] in
  for v = 0 to Structure.order a - 1 do
    let k = Foc_bd.Ball_type.ball_key ~max_ball:48 a ~centre:v ~r in
    match Hashtbl.find_opt tbl k with
    | Some members -> members := v :: !members
    | None ->
        let members = ref [ v ] in
        Hashtbl.add tbl k members;
        classes := (k, members) :: !classes
  done;
  List.rev_map (fun (k, members) -> (k, List.rev !members)) !classes

let same_classes want got =
  List.length want = List.length got
  && List.for_all2
       (fun (kw, mw) (kg, mg) ->
         mw = mg && (List.length mw = 1 || String.equal kw kg))
       want got

(* ternary rows, self-loops and a 0-ary fact, three disjoint copies so
   that many balls are isomorphic *)
let random_mixed (n, seed) =
  let rng = Random.State.make [| n; seed; 7 |] in
  let sign =
    Foc_data.Signature.of_list [ ("B", 1); ("E", 2); ("T", 3); ("Z", 0) ]
  in
  let pick () = Random.State.int rng n in
  let rows k f = List.init k (fun _ -> f ()) in
  let one =
    Structure.create sign ~order:n
      [
        ("B", rows (n / 3) (fun () -> [| pick () |]));
        ( "E",
          rows n (fun () -> [| pick (); pick () |])
          @ rows (n / 4) (fun () ->
                let v = pick () in
                [| v; v |]) );
        ("T", rows (n / 4) (fun () -> [| pick (); pick (); pick () |]));
        ("Z", if Random.State.bool rng then [ [||] ] else []);
      ]
  in
  Structure.disjoint_union one (Structure.disjoint_union one one)

let random_grid (w, seed) =
  Structure.of_graph (Foc_graph.Gen.grid w (2 + (seed mod 7)))

let prop_classes_equal_oracle name gen =
  QCheck.Test.make
    ~name:(Printf.sprintf "%s: classes = exact keys of every element" name)
    ~count:12
    QCheck.(pair (int_range 6 30) (int_range 0 10000))
    (fun (n, seed) ->
      let a = gen (n, seed) in
      List.for_all
        (fun r ->
          let want = oracle_classes a ~r in
          List.for_all
            (fun jobs -> same_classes want (Foc_bd.Hanf.classes ~jobs a ~r))
            [ 1; 2 ])
        [ 1; 2; 3 ])

let permute rng a =
  let n = Structure.order a in
  let perm = Array.init n Fun.id in
  for i = n - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = perm.(i) in
    perm.(i) <- perm.(j);
    perm.(j) <- t
  done;
  let b =
    Structure.create (Structure.signature a) ~order:n
      (List.map
         (fun (name, _) ->
           ( name,
             Foc_data.Tuple.Set.elements (Structure.rel a name)
             |> List.map (Array.map (fun v -> perm.(v))) ))
         (Foc_data.Signature.to_list (Structure.signature a)))
  in
  (b, perm)

let prop_classes_permutation =
  QCheck.Test.make ~name:"relabelling maps classes onto classes" ~count:20
    QCheck.(triple (int_range 6 30) (int_range 0 10000) (int_range 1 3))
    (fun (n, seed, r) ->
      let rng = Random.State.make [| n; seed; r |] in
      let a =
        if seed mod 2 = 0 then random_mixed (n, seed) else random_bd (n, seed)
      in
      let b, perm = permute rng a in
      let member_sets cls =
        List.sort compare
          (List.map (fun (_, members) -> List.sort compare members) cls)
      in
      member_sets (Foc_bd.Hanf.classes b ~r)
      = member_sets
          (List.map
             (fun (k, members) -> (k, List.map (fun v -> perm.(v)) members))
             (Foc_bd.Hanf.classes a ~r)))

(* the estimate a session's budget charges for a partition, against the
   heap words the partition really holds *)
let test_partition_bytes () =
  let rng = Random.State.make [| 1; 2000; 3 |] in
  let a =
    Foc_data.Db_gen.colored_digraph rng
      ~graph:(Foc_graph.Gen.random_bounded_degree rng 2000 3)
      ~orient:`Both ~p_red:0.3 ~p_blue:0.4 ~p_green:0.3
  in
  List.iter
    (fun r ->
      let cls = Foc_bd.Hanf.classes a ~r in
      let real = Obj.reachable_words (Obj.repr cls) * (Sys.word_size / 8) in
      let est = Foc_bd.Hanf.approx_bytes cls in
      Alcotest.(check bool)
        (Printf.sprintf "r=%d: estimate %d within 10%% of %d" r est real)
        true
        (abs (est - real) * 10 <= real))
    [ 1; 2 ]

(* ---------------- Hanf engine back-end ---------------- *)

let hanf_engine () =
  Foc_nd.Engine.create
    ~config:{ Foc_nd.Engine.default_config with backend = Foc_nd.Engine.Hanf }
    ()

let test_backend_agreement () =
  let rng = Random.State.make [| 33 |] in
  let structures =
    [
      ("grid", coloured 1 (Foc_graph.Gen.grid 8 8));
      ("tree", coloured 2 (Foc_graph.Gen.random_tree rng 80));
      ("bounded", coloured 3 (Foc_graph.Gen.random_bounded_degree rng 80 3));
    ]
  in
  let terms =
    [
      "#(y). (E(x,y) & B(y))";
      "#(x,y). (R(x) & !E(x,y) & B(y))";
      "#(x). prime(#(y). E(x,y))";
    ]
  in
  List.iter
    (fun (name, a) ->
      let direct = Foc_nd.Engine.create () in
      List.iter
        (fun src ->
          let t = parse_t src in
          if Var.Set.is_empty (Ast.free_term t) then
            Alcotest.(check int)
              (name ^ " ground: " ^ src)
              (Foc_nd.Engine.eval_ground direct a t)
              (Foc_nd.Engine.eval_ground (hanf_engine ()) a t)
          else
            Alcotest.(check (array int))
              (name ^ " unary: " ^ src)
              (Foc_nd.Engine.eval_unary direct a "x" t)
              (Foc_nd.Engine.eval_unary (hanf_engine ()) a "x" t))
        terms)
    structures;
  (* the width-0 leaf of #(). (true) is a sentence: on an empty universe
     every back-end raises, as the Naive oracle does *)
  let empty =
    Structure.create Foc_data.Db_gen.colored_signature ~order:0 []
  in
  let raises f =
    match f () with _ -> false | exception Invalid_argument _ -> true
  in
  let t = parse_t "#(). (true)" in
  Alcotest.(check bool)
    "naive raises on order 0" true
    (raises (fun () -> Foc_eval.Naive.ground_term preds empty t));
  List.iter
    (fun (name, backend) ->
      let e =
        Foc_nd.Engine.create
          ~config:{ Foc_nd.Engine.default_config with backend }
          ()
      in
      Alcotest.(check bool)
        (name ^ " raises on order 0")
        true
        (raises (fun () -> Foc_nd.Engine.eval_ground e empty t)))
    [
      ("direct", Foc_nd.Engine.Direct);
      ("cover", Foc_nd.Engine.Cover);
      ("splitter", Foc_nd.Engine.Splitter { max_rounds = 2; small = 6 });
      ("hanf", Foc_nd.Engine.Hanf);
    ]

let test_backend_sentence () =
  let a = coloured 4 (Foc_graph.Gen.grid 6 6) in
  let f = parse "exists x. (#(y). (E(x,y) & B(y))) >= 1" in
  Alcotest.(check bool) "sentence agreement"
    (Foc_nd.Engine.check (Foc_nd.Engine.create ()) a f)
    (Foc_nd.Engine.check (hanf_engine ()) a f)

let prop_hanf_agrees =
  QCheck.Test.make ~name:"hanf backend = direct on random structures"
    ~count:20
    QCheck.(pair (int_range 8 50) (int_range 0 10000))
    (fun (n, seed) ->
      let rng = Random.State.make [| n; seed |] in
      let a = coloured seed (Foc_graph.Gen.random_bounded_degree rng n 3) in
      let t = parse_t "#(y). (E(x,y) & B(y))" in
      Foc_nd.Engine.eval_unary (Foc_nd.Engine.create ()) a "x" t
      = Foc_nd.Engine.eval_unary (hanf_engine ()) a "x" t)

let () =
  Alcotest.run "foc_bd"
    [
      ( "ball types",
        [
          Alcotest.test_case "distinguishes" `Quick test_key_distinguishes;
          Alcotest.test_case "root matters" `Quick test_key_root_matters;
          Alcotest.test_case "iso invariant" `Quick test_key_iso_invariant;
          Alcotest.test_case "colours matter" `Quick test_key_colours_matter;
        ] );
      ( "grouping",
        [
          Alcotest.test_case "grid has few types" `Quick test_grid_has_few_types;
          Alcotest.test_case "cycle single type" `Quick test_cycle_single_type;
          Alcotest.test_case "pinned partitions" `Quick test_pinned_partitions;
          QCheck_alcotest.to_alcotest prop_classes_sound;
          QCheck_alcotest.to_alcotest prop_classes_complete_on_forests;
          QCheck_alcotest.to_alcotest prop_classes_jobs_invariant;
          QCheck_alcotest.to_alcotest prop_ball_key_is_canonical_key;
        ] );
      ( "refinement",
        [
          QCheck_alcotest.to_alcotest
            (prop_classes_equal_oracle "coloured bd-3" random_bd);
          QCheck_alcotest.to_alcotest
            (prop_classes_equal_oracle "forest" random_forest);
          QCheck_alcotest.to_alcotest
            (prop_classes_equal_oracle "grid" random_grid);
          QCheck_alcotest.to_alcotest
            (prop_classes_equal_oracle "ternary, loops, 0-ary" random_mixed);
          QCheck_alcotest.to_alcotest prop_classes_permutation;
          Alcotest.test_case "partition bytes" `Quick test_partition_bytes;
        ] );
      ( "backend",
        [
          Alcotest.test_case "agreement" `Quick test_backend_agreement;
          Alcotest.test_case "sentence" `Quick test_backend_sentence;
          QCheck_alcotest.to_alcotest prop_hanf_agrees;
        ] );
    ]
