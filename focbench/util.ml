(* Measurement helpers shared by the workloads: order statistics with the
   ">= 10 samples beyond" tail rule, log-log slopes, open-loop schedules
   and latency from scheduled send time, rate-ladder backlog detection,
   and the result record every workload returns. Pure functions here are
   covered by test_util.ml. *)

(* monotonic seconds *)
let now () = float_of_int (Foc.Obs.Clock.now_ns ()) /. 1e9

(* ---------------- order statistics ---------------- *)

let sorted_copy a =
  let s = Array.copy a in
  Array.sort compare s;
  s

(* Nearest-rank quantile of an ascending array: the smallest sample with
   at least [p] of the samples at or below it. *)
let rank n p =
  max 0 (min (n - 1) (int_of_float (Float.ceil ((p *. float_of_int n) -. 1e-9)) - 1))

let quantile sorted p =
  let n = Array.length sorted in
  if n = 0 then nan else sorted.(rank n p)

let median a = quantile (sorted_copy a) 0.5

(* The mean of the two middle samples of an ascending array of even
   length: continuous in the samples, unlike a nearest rank. *)
let interpolated_median sorted =
  let n = Array.length sorted in
  if n = 0 then nan
  else if n mod 2 = 1 then sorted.(n / 2)
  else (sorted.((n / 2) - 1) +. sorted.(n / 2)) /. 2.

(* Samples strictly above the [p] quantile's rank. *)
let beyond n p = n - 1 - rank n p

let tail_ladder = [ 0.999; 0.99; 0.95; 0.9; 0.75; 0.5 ]

(* The highest percentile of [tail_ladder] with at least ten samples
   beyond it, with its value; [None] when fewer than eleven samples exist
   (no percentile qualifies). *)
let tail sorted =
  let n = Array.length sorted in
  List.find_map
    (fun p -> if beyond n p >= 10 then Some (p, quantile sorted p) else None)
    tail_ladder

(* Splits [samples] (in the order they were taken) into [segments]
   consecutive runs of n / segments samples each (the last n mod segments
   samples are dropped, so every run has the same count), applies [stat]
   to each run sorted ascending, and returns the median over the runs. A
   burst of machine contention that slows one stretch of the window then
   moves the figure only if it covers most segments. *)
let segment_median ~segments samples stat =
  let per = Array.length samples / segments in
  interpolated_median
    (sorted_copy
       (Array.init segments (fun i -> stat (sorted_copy (Array.sub samples (i * per) per)))))

(* A run's read latencies: the median and the tail (highest percentile
   with >= 10 samples beyond it, else the slowest sample), each as its
   median over [segments] consecutive segments, with the tail's
   percentile and the samples per segment. *)
type reads = { p50 : float; tail_v : float; tail_pct : float; per_segment : int }

let reads ~segments samples =
  let per = Array.length samples / segments in
  let tail_at sorted =
    match tail sorted with Some (_, v) -> v | None -> sorted.(Array.length sorted - 1)
  in
  {
    p50 = segment_median ~segments samples interpolated_median;
    tail_v = segment_median ~segments samples tail_at;
    tail_pct = (match tail (Array.make per 0.) with Some (p, _) -> p *. 100. | None -> 100.);
    per_segment = per;
  }

(* ---------------- growth ---------------- *)

(* log(t_large / t_small) / log(n_large / n_small): the exponent k of
   t ~ n^k through two sizes. *)
let slope ~n_small ~t_small ~n_large ~t_large =
  log (t_large /. t_small) /. log (float_of_int n_large /. float_of_int n_small)

(* ---------------- open-loop schedules ---------------- *)

(* Poisson arrivals at [rate] per second over [duration] seconds, as
   offsets from the window start; the same state gives the same schedule. *)
let poisson_schedule rng ~rate ~duration =
  let rec go t acc =
    let gap = -.log (1. -. Random.State.float rng 1.) /. rate in
    let t = t +. gap in
    if t >= duration then Array.of_list (List.rev acc) else go t (t :: acc)
  in
  go 0. []

(* A request's latency runs from when it was due, not from when the
   generator got round to sending it: a stall that delays later sends is
   charged to every request it delayed. *)
let latency ~scheduled ~completed = completed -. scheduled

(* How late the generator sent a request. *)
let lateness ~scheduled ~sent = Float.max 0. (sent -. scheduled)

(* Zipf(s) sampler over [0, n): index 0 is the most popular. *)
let zipf_sampler ~n ~s =
  let w = Array.init n (fun i -> 1. /. (float_of_int (i + 1) ** s)) in
  let total = Array.fold_left ( +. ) 0. w in
  let cdf = Array.make n 0. in
  let acc = ref 0. in
  Array.iteri
    (fun i x ->
      acc := !acc +. (x /. total);
      cdf.(i) <- !acc)
    w;
  fun rng ->
    let u = Random.State.float rng 1. in
    let rec search lo hi =
      if lo >= hi then lo
      else
        let mid = (lo + hi) / 2 in
        if cdf.(mid) < u then search (mid + 1) hi else search lo mid
    in
    min (n - 1) (search 0 (n - 1))

(* ---------------- rate ladder ---------------- *)

(* [backlog_grows samples] — [samples] are (time, requests outstanding)
   observations taken while a rung ran. The backlog grows when the
   outstanding count rises across the window by more than a handful of
   requests: the least-squares trend over the window exceeds
   max(4, 5% of the peak backlog + 2). A server keeping up holds a flat,
   small backlog; one falling behind accumulates it linearly. *)
let backlog_grows samples =
  match samples with
  | [] | [ _ ] -> false
  | _ ->
      let m = float_of_int (List.length samples) in
      let ts = List.map fst samples and ys = List.map (fun (_, y) -> float_of_int y) samples in
      let mean l = List.fold_left ( +. ) 0. l /. m in
      let mt = mean ts and my = mean ys in
      let stt = List.fold_left (fun a t -> a +. ((t -. mt) ** 2.)) 0. ts in
      if stt = 0. then false
      else
        let sty =
          List.fold_left2 (fun a t y -> a +. ((t -. mt) *. (y -. my))) 0. ts ys
        in
        let span = List.fold_left Float.max neg_infinity ts -. List.fold_left Float.min infinity ts in
        let rise = sty /. stt *. span in
        let peak = List.fold_left Float.max 0. ys in
        rise > Float.max 4. ((0.05 *. peak) +. 2.)

(* The highest rung reached by climbing the ladder while each rung
   passes; [None] when the first rung already fails. *)
let ladder_pick rungs =
  let rec go best = function
    | (rate, true) :: rest -> go (Some rate) rest
    | _ -> best
  in
  go None rungs

(* ---------------- results ---------------- *)

type metric = { name : string; value : float; unit : string }

let m name unit value = { name; value; unit }

type result = {
  attempted : int;
  failed : int;
  metrics : metric list;
  digest : string;  (** digest of the generated inputs *)
}

let json_float v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.1f" v
  else Printf.sprintf "%.17g" v

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 -> Printf.bprintf b "\\u%04x" (Char.code c)
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let result_line r =
  let metrics =
    List.map
      (fun x ->
        Printf.sprintf "%s: {\"value\": %s, \"unit\": %s}" (json_string x.name)
          (json_float x.value) (json_string x.unit))
      r.metrics
  in
  Printf.sprintf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    (r.failed = 0) r.attempted r.failed (String.concat ", " metrics)

(* ---------------- process facts ---------------- *)

(* VmHWM of a process in MiB, from /proc ([nan] where unavailable). *)
let peak_rss_mb pid =
  let path =
    match pid with None -> "/proc/self/status" | Some p -> Printf.sprintf "/proc/%d/status" p
  in
  match open_in path with
  | exception Sys_error _ -> nan
  | ic ->
      let rec scan () =
        match input_line ic with
        | exception End_of_file -> nan
        | line ->
            if String.length line > 6 && String.sub line 0 6 = "VmHWM:" then
              Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d" (fun kb ->
                  float_of_int kb /. 1024.)
            else scan ()
      in
      let v = scan () in
      close_in ic;
      v

(* Reset this process's VmHWM to its current RSS (Linux clear_refs "5"),
   so a peak read later covers only what ran after the call. *)
let reset_peak_rss () =
  try Out_channel.with_open_bin "/proc/self/clear_refs" (fun oc -> output_string oc "5")
  with Sys_error _ -> ()

(* Benchmark-owned spans: in the traced run, each call into a layer is
   recorded as (name, start, end) in memory and written out as Chrome
   trace_event JSON when the run ends. Untraced runs record nothing. *)
module Spans = struct
  let on = ref false
  let events : (string * float * float) list ref = ref []

  let time name f =
    if not !on then f ()
    else
      let t0 = now () in
      Fun.protect f ~finally:(fun () -> events := (name, t0, now ()) :: !events)

  let write path =
    let evs = List.rev !events in
    let base = match evs with (_, t0, _) :: _ -> t0 | [] -> 0. in
    Out_channel.with_open_bin path (fun oc ->
        output_string oc "[";
        List.iteri
          (fun i (name, t0, t1) ->
            Printf.fprintf oc "%s{\"name\":%s,\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f}"
              (if i = 0 then "" else ",\n") (json_string name)
              ((t0 -. base) *. 1e6) ((t1 -. t0) *. 1e6))
          evs;
        output_string oc "]\n")
end
