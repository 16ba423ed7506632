(* Unit and property tests for foc_util: bitsets, combinatorics, primes. *)

open Foc_util

let test_bitset_basics () =
  let s = Bitset.create 100 in
  Alcotest.(check int) "empty cardinal" 0 (Bitset.cardinal s);
  Bitset.add s 3;
  Bitset.add s 64;
  Bitset.add s 99;
  Alcotest.(check bool) "mem 3" true (Bitset.mem s 3);
  Alcotest.(check bool) "mem 4" false (Bitset.mem s 4);
  Alcotest.(check int) "cardinal" 3 (Bitset.cardinal s);
  Alcotest.(check (list int)) "to_list" [ 3; 64; 99 ] (Bitset.to_list s);
  Bitset.remove s 64;
  Alcotest.(check (list int)) "after remove" [ 3; 99 ] (Bitset.to_list s);
  let c = Bitset.copy s in
  Bitset.add c 0;
  Alcotest.(check bool) "copy is deep" false (Bitset.mem s 0);
  Bitset.clear s;
  Alcotest.(check int) "clear" 0 (Bitset.cardinal s)

let test_bitset_subset () =
  let a = Bitset.of_list 10 [ 1; 2 ] and b = Bitset.of_list 10 [ 1; 2; 5 ] in
  Alcotest.(check bool) "a <= b" true (Bitset.subset a b);
  Alcotest.(check bool) "b <= a" false (Bitset.subset b a);
  Alcotest.(check bool) "a = a" true (Bitset.equal a (Bitset.copy a))

let test_bitset_bounds () =
  let s = Bitset.create 8 in
  Alcotest.check_raises "add out of range" (Invalid_argument "Bitset.add: out of range")
    (fun () -> Bitset.add s 8)

(* [next] from every start = the least member at or above it *)
let bitset_next =
  QCheck.Test.make ~name:"bitset next = least member >= i" ~count:200
    QCheck.(pair (int_range 0 200) (list small_nat))
    (fun (n, xs) ->
      let xs = List.filter (fun x -> x < n) xs in
      let s = Bitset.of_list n xs in
      let ok = ref true in
      for i = 0 to n + 8 do
        let want =
          List.fold_left (fun m x -> if x >= i && x < m then x else m) n xs
        in
        if Bitset.next s i <> want then ok := false
      done;
      let seen = ref [] in
      Bitset.iter (fun v -> seen := v :: !seen) s;
      !ok && List.rev !seen = List.sort_uniq compare xs)

let test_subsets () =
  Alcotest.(check int) "2^4 subsets" 16 (List.length (Combi.subsets [ 1; 2; 3; 4 ]));
  Alcotest.(check (list (list int))) "subsets of []" [ [] ] (Combi.subsets []);
  let s3 = Combi.subsets_of_size 2 [ 1; 2; 3 ] in
  Alcotest.(check int) "C(3,2)" 3 (List.length s3)

let test_pairs () =
  Alcotest.(check int) "C(5,2) pairs" 10 (List.length (Combi.pairs [ 1; 2; 3; 4; 5 ]));
  Alcotest.(check (list (pair int int))) "pairs order" [ (1, 2); (1, 3); (2, 3) ]
    (Combi.pairs [ 1; 2; 3 ])

let test_tuples () =
  Alcotest.(check int) "3^2 tuples" 9 (List.length (Combi.tuples [ 0; 1; 2 ] 2));
  Alcotest.(check (list (list int))) "0-tuples" [ [] ] (Combi.tuples [ 0; 1 ] 0);
  let seen = ref 0 in
  Combi.iter_tuples 4 3 (fun t ->
      Alcotest.(check int) "arity" 3 (Array.length t);
      incr seen);
  Alcotest.(check int) "4^3 iterated" 64 !seen;
  let seen0 = ref 0 in
  Combi.iter_tuples 5 0 (fun _ -> incr seen0);
  Alcotest.(check int) "single empty tuple" 1 !seen0;
  (* empty domain, positive arity: nothing *)
  let seen_empty = ref 0 in
  Combi.iter_tuples 0 2 (fun _ -> incr seen_empty);
  Alcotest.(check int) "no tuples over empty domain" 0 !seen_empty

let bell = [ (0, 1); (1, 1); (2, 2); (3, 5); (4, 15); (5, 52) ]

let test_partitions () =
  List.iter
    (fun (n, b) ->
      let xs = List.init n (fun i -> i) in
      Alcotest.(check int)
        (Printf.sprintf "Bell(%d)" n)
        b
        (List.length (Combi.partitions xs)))
    bell;
  (* every partition covers exactly the input *)
  List.iter
    (fun p ->
      let flat = List.sort compare (List.concat p) in
      Alcotest.(check (list int)) "partition covers" [ 0; 1; 2; 3 ] flat)
    (Combi.partitions [ 0; 1; 2; 3 ])

let test_cartesian_range_sum () =
  Alcotest.(check int) "cartesian size" 6
    (List.length (Combi.cartesian [ [ 1; 2 ]; [ 3 ]; [ 4; 5; 6 ] ]));
  Alcotest.(check (list int)) "range" [ 2; 3; 4 ] (Combi.range 2 5);
  Alcotest.(check (list int)) "empty range" [] (Combi.range 5 5);
  Alcotest.(check int) "sum" 12 (Combi.sum (fun x -> 2 * x) [ 1; 2; 3 ])

let known_primes =
  [ 2; 3; 5; 7; 11; 13; 17; 19; 23; 29; 31; 37; 41; 43; 47; 53; 59; 61 ]

let test_primes_small () =
  for n = -5 to 62 do
    Alcotest.(check bool)
      (Printf.sprintf "is_prime %d" n)
      (List.mem n known_primes) (Prime.is_prime n)
  done

let test_primes_large () =
  Alcotest.(check bool) "2^31-1 prime" true (Prime.is_prime 2147483647);
  Alcotest.(check bool) "2^31+1 not prime" false (Prime.is_prime 2147483649);
  Alcotest.(check bool) "10^15+37 prime" true (Prime.is_prime 1000000000000037);
  Alcotest.(check bool) "square not prime" false (Prime.is_prime (104729 * 104729));
  Alcotest.(check int) "next_prime" 104729 (Prime.next_prime 104728)

let prime_agrees_with_trial_division =
  QCheck.Test.make ~name:"miller-rabin agrees with trial division"
    ~count:500
    QCheck.(int_range 0 100000)
    (fun n ->
      let trial n =
        if n < 2 then false
        else begin
          let rec go d = d * d > n || (n mod d <> 0 && go (d + 1)) in
          go 2
        end
      in
      Prime.is_prime n = trial n)

let subsets_size_consistent =
  QCheck.Test.make ~name:"subsets_of_size partitions subsets" ~count:100
    QCheck.(int_range 0 8)
    (fun n ->
      let xs = List.init n (fun i -> i) in
      let total =
        List.fold_left
          (fun acc k -> acc + List.length (Combi.subsets_of_size k xs))
          0
          (Combi.range 0 (n + 1))
      in
      total = List.length (Combi.subsets xs))

let () =
  Alcotest.run "foc_util"
    [
      ( "bitset",
        [
          Alcotest.test_case "basics" `Quick test_bitset_basics;
          Alcotest.test_case "subset/equal" `Quick test_bitset_subset;
          Alcotest.test_case "bounds" `Quick test_bitset_bounds;
          QCheck_alcotest.to_alcotest bitset_next;
        ] );
      ( "combi",
        [
          Alcotest.test_case "subsets" `Quick test_subsets;
          Alcotest.test_case "pairs" `Quick test_pairs;
          Alcotest.test_case "tuples" `Quick test_tuples;
          Alcotest.test_case "partitions" `Quick test_partitions;
          Alcotest.test_case "cartesian/range/sum" `Quick test_cartesian_range_sum;
          QCheck_alcotest.to_alcotest subsets_size_consistent;
        ] );
      ( "prime",
        [
          Alcotest.test_case "small" `Quick test_primes_small;
          Alcotest.test_case "large" `Quick test_primes_large;
          QCheck_alcotest.to_alcotest prime_agrees_with_trial_division;
        ] );
    ]
