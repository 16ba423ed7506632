(* focbench: one workload of the repository benchmark per process.

     focbench --workload NAME --seed N --seconds S --trace 0|1 [--foc EXE]

   Generates the workload's inputs from the seed, measures for about S
   seconds, checks every answer, and prints two lines: a run-metadata
   object, then the result object
   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}.
   With --trace 0 the metrics are BENCHMARK.json's end_to_end list, with
   --trace 1 its per_layer list (a layer the workload never enters
   reports 0). Exits 1 without a result line if a metric the workload
   owes is missing or the inputs cannot be built. *)

let workloads = [ "sweep-cold"; "serve-rw"; "stream-join" ]

(* serve-rw's window inside stream-join's traced run *)
let serve_window_s = 10.

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* (name, unit) of one metric list of BENCHMARK.json *)
let metric_list key =
  let module J = Foc.Obs.Json in
  match J.parse (read_file "BENCHMARK.json") with
  | Error e -> failwith ("BENCHMARK.json: " ^ e)
  | Ok doc -> (
      match J.member key doc with
      | Some (J.List l) ->
          List.map
            (fun x ->
              match (J.member "name" x, J.member "unit" x) with
              | Some (J.Str n), Some (J.Str u) -> (n, u)
              | _ -> failwith ("BENCHMARK.json: malformed " ^ key))
            l
      | _ -> failwith ("BENCHMARK.json: no " ^ key))

let meta ~workload ~seed ~seconds ~traced ~digest =
  let s = Util.json_string in
  Printf.sprintf
    "{\"meta\": {\"workload\": %s, \"seed\": %d, \"seconds\": %s, \"trace\": %b, \
     \"host\": %s, \"nproc\": %d, \"ocaml\": %s, \"date\": %s, \"inputs_digest\": %s}}"
    (s workload) seed (Util.json_float seconds) traced
    (s (Unix.gethostname ()))
    (Domain.recommended_domain_count ())
    (s Sys.ocaml_version)
    (s
       (let t = Unix.gmtime (Unix.time ()) in
        Printf.sprintf "%04d-%02d-%02dT%02d:%02d:%02dZ" (t.tm_year + 1900) (t.tm_mon + 1)
          t.tm_mday t.tm_hour t.tm_min t.tm_sec))
    (s digest)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 in
  let foc = ref "_build/default/bin/foc_cli.exe" in
  Arg.parse
    [ ("--workload", Arg.Set_string workload, "NAME " ^ String.concat "|" workloads);
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S measured window");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end or per-layer metrics");
      ("--foc", Arg.Set_string foc, "EXE the foc binary (serve-rw)") ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "focbench --workload NAME --seed N --seconds S --trace 0|1";
  let traced = !trace = 1 in
  Util.Spans.on := traced;
  let wanted = metric_list (if traced then "per_layer" else "end_to_end") in
  let r =
    match !workload with
    | "sweep-cold" -> Sweep.run ~seed:!seed ~seconds:!seconds ~traced
    | "serve-rw" -> Serve_rw.run ~foc:!foc ~seed:!seed ~seconds:!seconds ~traced
    | "stream-join" when traced ->
        (* serve-rw is not a timed workload of BENCHMARK.json (its latencies
           follow the load of a shared host too closely to be bounded), so
           its per-layer figures and checks ride on this traced run, with a
           shorter window; on a name both report, stream-join's comes first *)
        let s = Stream.run ~seed:!seed ~seconds:!seconds ~traced in
        let w = Serve_rw.run ~foc:!foc ~seed:!seed ~seconds:(Float.min !seconds serve_window_s) ~traced in
        let attempted = s.attempted + w.attempted and failed = s.failed + w.failed in
        { Util.attempted; failed; digest = s.digest ^ "+" ^ w.digest;
          metrics =
            Util.m "error_rate" "1" (float_of_int failed /. float_of_int (max 1 attempted))
            :: s.metrics @ w.metrics }
    | "stream-join" -> Stream.run ~seed:!seed ~seconds:!seconds ~traced
    | w ->
        Printf.eprintf "focbench: unknown workload %S (one of %s)\n" w
          (String.concat ", " workloads);
        exit 2
  in
  let pick (name, unit) =
    match List.find_opt (fun (x : Util.metric) -> x.name = name) r.metrics with
    | Some x -> { x with unit }
    | None when traced -> Util.m name unit 0.
    | None ->
        Printf.eprintf "focbench: %s produced no %s\n" !workload name;
        exit 1
  in
  let metrics = List.map pick wanted in
  if traced then begin
    (* spans go next to the run's other outputs, inside the checkout *)
    (try Sys.mkdir ".focbench" 0o755 with Sys_error _ -> ());
    Util.Spans.write (Printf.sprintf ".focbench/spans-%s-%d.json" !workload !seed)
  end;
  print_endline
    (meta ~workload:!workload ~seed:!seed ~seconds:!seconds ~traced ~digest:r.digest);
  print_endline (Util.result_line { r with metrics })
