(* Tests for neighbourhood covers (Thm 8.1 shape) and the splitter game
   (Section 8). *)

open Foc_graph

let check_cover_invariants g r =
  let cover = Cover.make g ~r in
  let n = Graph.order g in
  (* every vertex assigned, and its r-ball is inside its cluster *)
  for a = 0 to n - 1 do
    let id = Cover.assigned cover a in
    Alcotest.(check bool) "assigned in range" true
      (id >= 0 && id < Cover.cluster_count cover);
    Alcotest.(check bool)
      (Printf.sprintf "N_r(%d) covered" a)
      true
      (Cover.covers_tuple cover g ~s:r id [ a ])
  done;
  (* radius bound 2r *)
  Alcotest.(check bool) "cluster radius <= 2r" true
    (Cover.max_cluster_radius cover g <= 2 * r);
  (* clusters are connected in G *)
  for i = 0 to Cover.cluster_count cover - 1 do
    let members = Array.to_list (Cover.cluster cover i) in
    let sub, _ = Graph.induced g members in
    Alcotest.(check bool) "cluster connected" true (Components.is_connected sub)
  done;
  cover

let test_cover_path () =
  let g = Gen.path 50 in
  let cover = check_cover_invariants g 2 in
  Alcotest.(check bool) "sparse degree" true (Cover.max_degree cover <= 3)

let test_cover_tree_grid () =
  let rng = Random.State.make [| 3 |] in
  ignore (check_cover_invariants (Gen.random_tree rng 80) 2);
  ignore (check_cover_invariants (Gen.grid 8 9) 1);
  ignore (check_cover_invariants (Gen.grid 8 9) 3)

let test_cover_clique () =
  (* on a clique, one cluster covers everything *)
  let g = Gen.clique 20 in
  let cover = check_cover_invariants g 1 in
  Alcotest.(check int) "single cluster" 1 (Cover.cluster_count cover);
  Alcotest.(check int) "degree 1" 1 (Cover.max_degree cover)

let test_cover_r0 () =
  let g = Gen.path 5 in
  let cover = Cover.make g ~r:0 in
  (* r = 0: N_0(a) = {a}, singleton clusters suffice *)
  for a = 0 to 4 do
    Alcotest.(check bool) "covers self" true
      (Cover.covers_tuple cover g ~s:0 (Cover.assigned cover a) [ a ])
  done

let test_kernel_partition () =
  let g = Gen.grid 6 6 in
  let cover = Cover.make g ~r:2 in
  let total =
    List.init (Cover.cluster_count cover) (fun i ->
        Array.length (Cover.kernel cover i))
    |> List.fold_left ( + ) 0
  in
  Alcotest.(check int) "kernels partition universe" (Graph.order g) total

let test_splitter_step_legality () =
  let g = Gen.path 5 in
  let st = Splitter.start g in
  Alcotest.check_raises "outside ball"
    (Invalid_argument "Splitter.step: splitter move outside the ball")
    (fun () -> ignore (Splitter.step st ~r:1 ~connector_move:0 ~splitter_move:4))

let test_splitter_wins_on_trees () =
  let rng = Random.State.make [| 11 |] in
  let g = Gen.random_tree rng 200 in
  let depth = Splitter.depths_from g ~root:0 in
  let connector = Splitter.connector_greedy ~r:2 rng in
  let rounds =
    Splitter.rounds_to_win g ~r:2 ~max_rounds:10 ~connector
      ~splitter:(Splitter.splitter_tree ~depth)
  in
  match rounds with
  | Some k -> Alcotest.(check bool) "few rounds on a tree" true (k <= 6)
  | None -> Alcotest.fail "splitter should win on a tree"

let test_splitter_loses_on_clique () =
  let rng = Random.State.make [| 13 |] in
  let g = Gen.clique 30 in
  let connector = Splitter.connector_greedy ~r:1 rng in
  let rounds =
    Splitter.rounds_to_win g ~r:1 ~max_rounds:10 ~connector
      ~splitter:(Splitter.splitter_greedy ~r:1)
  in
  Alcotest.(check (option int)) "cannot win quickly on a clique" None rounds

let test_splitter_greedy_on_grid () =
  let rng = Random.State.make [| 17 |] in
  let g = Gen.grid 10 10 in
  let connector = Splitter.connector_greedy ~r:1 rng in
  let rounds =
    Splitter.rounds_to_win g ~r:1 ~max_rounds:30 ~connector
      ~splitter:(Splitter.splitter_greedy ~r:1)
  in
  match rounds with
  | Some _ -> ()
  | None -> Alcotest.fail "greedy splitter should eventually win on a grid (r=1)"

let test_splitter_centre_path () =
  let rng = Random.State.make [| 19 |] in
  let g = Gen.path 40 in
  (* radius 1 on a path: picking the centre leaves two paths of length 1 *)
  let connector = Splitter.connector_greedy ~r:1 rng in
  let rounds =
    Splitter.rounds_to_win g ~r:1 ~max_rounds:10 ~connector
      ~splitter:Splitter.splitter_centre
  in
  match rounds with
  | Some k -> Alcotest.(check bool) "wins fast" true (k <= 3)
  | None -> Alcotest.fail "centre splitter should win on a path with r=1"

let prop_cover_covers_everything =
  QCheck.Test.make ~name:"random graphs: cover invariant" ~count:30
    QCheck.(pair (int_range 2 40) (int_range 0 3))
    (fun (n, r) ->
      let rng = Random.State.make [| n; r |] in
      let g = Gen.random_bounded_degree rng n 3 in
      let cover = Cover.make g ~r in
      List.for_all
        (fun a -> Cover.covers_tuple cover g ~s:r (Cover.assigned cover a) [ a ])
        (List.init n (fun i -> i)))

(* the greedy sweep with one hash-table BFS per cluster: the same
   centres, members and assignment as [Cover.make], and the degree and
   containing lists read off every cluster *)
let reference_cover g ~r =
  let n = Graph.order g in
  let assign = Array.make n (-1) in
  let clusters = ref [] and centres = ref [] in
  for c = 0 to n - 1 do
    if assign.(c) < 0 then begin
      let tbl = Bfs.ball_tbl g ~centres:[ c ] ~radius:(2 * r) in
      let id = List.length !clusters in
      clusters :=
        Array.of_list
          (List.sort compare (Hashtbl.fold (fun v _ l -> v :: l) tbl []))
        :: !clusters;
      centres := c :: !centres;
      Hashtbl.iter
        (fun v d -> if d <= r && assign.(v) < 0 then assign.(v) <- id)
        tbl
    end
  done;
  Cover.
    {
      fr = r;
      fclusters = Array.of_list (List.rev !clusters);
      fassign = assign;
      fcentres = Array.of_list (List.rev !centres);
    }

let prop_cover_reference =
  QCheck.Test.make ~name:"random graphs: cover = hash-table reference"
    ~count:50
    QCheck.(pair (int_range 1 60) (int_range 0 3))
    (fun (n, r) ->
      let rng = Random.State.make [| n; r; 5 |] in
      let g = Gen.random_bounded_degree rng n (1 + Random.State.int rng 4) in
      let cover = Cover.make g ~r in
      let want = reference_cover g ~r in
      let containing a =
        List.filter
          (fun i -> Array.mem a want.fclusters.(i))
          (List.init (Array.length want.fclusters) Fun.id)
      in
      Cover.to_flat cover = want
      && List.for_all
           (fun a -> Cover.clusters_containing cover a = containing a)
           (List.init n Fun.id)
      && Cover.max_degree cover
         = List.fold_left max 0
             (List.init n (fun a -> List.length (containing a))))

let () =
  Alcotest.run "foc_graph covers & splitter"
    [
      ( "cover",
        [
          Alcotest.test_case "path" `Quick test_cover_path;
          Alcotest.test_case "tree/grid" `Quick test_cover_tree_grid;
          Alcotest.test_case "clique" `Quick test_cover_clique;
          Alcotest.test_case "r=0" `Quick test_cover_r0;
          Alcotest.test_case "kernel partition" `Quick test_kernel_partition;
          QCheck_alcotest.to_alcotest prop_cover_covers_everything;
          QCheck_alcotest.to_alcotest prop_cover_reference;
        ] );
      ( "splitter",
        [
          Alcotest.test_case "move legality" `Quick test_splitter_step_legality;
          Alcotest.test_case "wins on trees" `Quick test_splitter_wins_on_trees;
          Alcotest.test_case "loses on cliques" `Quick test_splitter_loses_on_clique;
          Alcotest.test_case "greedy on grid" `Quick test_splitter_greedy_on_grid;
          Alcotest.test_case "centre on path" `Quick test_splitter_centre_path;
        ] );
    ]
