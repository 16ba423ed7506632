(* Checks of the benchmark's measurement helpers (Util): the ">= 10
   samples beyond" tail rule, the slope fit, latency from scheduled send
   time, and rate-ladder backlog detection. Run by `dune runtest`. *)

open Util

let failures = ref 0

let expect name ok =
  if not ok then begin
    incr failures;
    Printf.printf "FAIL %s\n" name
  end

let close ?(eps = 1e-9) a b = Float.abs (a -. b) <= eps *. Float.max 1. (Float.abs b)
let ramp n = Array.init n (fun i -> float_of_int (i + 1))

let test_tail () =
  (* 1000 samples: p99 is rank 990 with exactly ten beyond it *)
  expect "tail 1000 -> p99"
    (match tail (ramp 1000) with Some (p, v) -> p = 0.99 && v = 990. | None -> false);
  (* 1009 samples: p99 has 10 beyond (rank 999 of 1009), p99.9 has 1 *)
  expect "tail 1009 -> p99" (match tail (ramp 1009) with Some (p, _) -> p = 0.99 | None -> false);
  (* 10000 samples: p99.9 has ten beyond *)
  expect "tail 10000 -> p99.9"
    (match tail (ramp 10000) with Some (p, v) -> p = 0.999 && v = 9990. | None -> false);
  (* 100 samples: p90 leaves ten beyond, p95 only five *)
  expect "tail 100 -> p90"
    (match tail (ramp 100) with Some (p, v) -> p = 0.9 && v = 90. | None -> false);
  (* 20 samples: only the median leaves ten beyond *)
  expect "tail 20 -> p50"
    (match tail (ramp 20) with Some (p, _) -> p = 0.5 | None -> false);
  expect "tail 10 -> none" (tail (ramp 10) = None);
  expect "tail empty -> none" (tail [||] = None);
  expect "median odd" (median [| 3.; 1.; 2. |] = 2.);
  expect "beyond counts strictly above" (beyond 1000 0.99 = 10)

let test_slope () =
  (* t = c n^2 exactly: the slope is 2 at any pair of sizes *)
  let t n = 3e-7 *. (float_of_int n ** 2.) in
  expect "slope two points"
    (close (slope ~n_small:1000 ~t_small:(t 1000) ~n_large:4000 ~t_large:(t 4000)) 2.);
  expect "slope from a small to a large size"
    (close (slope ~n_small:500 ~t_small:(t 500) ~n_large:2000 ~t_large:(t 2000)) 2.);
  (* linear growth *)
  expect "slope linear" (close (slope ~n_small:10 ~t_small:1. ~n_large:40 ~t_large:4.) 1.)

let test_scheduled_latency () =
  (* a server that stalls for 1 s at t=0 and then answers instantly:
     requests due at 0.1, 0.2, ... are sent late and complete at 1.0.
     Timed from the scheduled send, each waited for the stall. *)
  let due = [| 0.1; 0.2; 0.5 |] in
  let completed = 1.0 in
  let lat = Array.map (fun s -> latency ~scheduled:s ~completed) due in
  expect "latency from schedule" (close lat.(0) 0.9 && close lat.(1) 0.8 && close lat.(2) 0.5);
  expect "lateness clamps early sends" (lateness ~scheduled:1.0 ~sent:0.9 = 0.);
  expect "lateness" (close (lateness ~scheduled:1.0 ~sent:1.25) 0.25);
  (* the Poisson schedule: deterministic per seed, increasing, mean gap
     close to 1/rate *)
  let s1 = poisson_schedule (Random.State.make [| 5 |]) ~rate:200. ~duration:50. in
  let s2 = poisson_schedule (Random.State.make [| 5 |]) ~rate:200. ~duration:50. in
  expect "schedule deterministic" (s1 = s2);
  let increasing = ref true in
  Array.iteri (fun i t -> if i > 0 && t <= s1.(i - 1) then increasing := false) s1;
  expect "schedule increasing" !increasing;
  let n = float_of_int (Array.length s1) in
  expect "schedule rate" (Float.abs ((n /. 50.) -. 200.) < 10.);
  expect "schedule within window" (Array.for_all (fun t -> t >= 0. && t < 50.) s1)

let test_backlog () =
  let flat = List.init 100 (fun i -> (float_of_int i *. 0.1, 2 + (i mod 3))) in
  expect "flat backlog" (not (backlog_grows flat));
  let growing = List.init 100 (fun i -> (float_of_int i *. 0.1, i / 2)) in
  expect "growing backlog" (backlog_grows growing);
  (* a burst that drains again is not growth *)
  let burst = List.init 100 (fun i -> (float_of_int i *. 0.1, if i >= 40 && i < 50 then 30 else 1)) in
  expect "burst drains" (not (backlog_grows burst));
  expect "single sample" (not (backlog_grows [ (0., 50) ]));
  expect "ladder stops at first failure"
    (ladder_pick [ (50., true); (100., true); (200., false); (400., true) ] = Some 100.);
  expect "ladder none" (ladder_pick [ (50., false) ] = None);
  expect "ladder all" (ladder_pick [ (50., true); (100., true) ] = Some 100.)

let test_zipf () =
  let draw = zipf_sampler ~n:300 ~s:1.1 in
  let rng = Random.State.make [| 9 |] in
  let counts = Array.make 300 0 in
  for _ = 1 to 20000 do
    let i = draw rng in
    counts.(i) <- counts.(i) + 1
  done;
  expect "zipf head heavier than tail" (counts.(0) > counts.(10) && counts.(10) > counts.(200));
  expect "zipf in range" (Array.fold_left ( + ) 0 counts = 20000)

let () =
  test_tail ();
  test_slope ();
  test_scheduled_latency ();
  test_backlog ();
  test_zipf ();
  if !failures > 0 then exit 1
