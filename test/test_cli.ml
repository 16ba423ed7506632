(* End-to-end smoke tests of the foc CLI binary: generate a structure file,
   then drive every subcommand against it and check the outputs. *)

(* dune runtest runs from the test directory; dune exec from the project
   root — probe both *)
let cli =
  List.find Sys.file_exists
    [ "../bin/foc_cli.exe"; "_build/default/bin/foc_cli.exe" ]

let run args =
  let tmp = Filename.temp_file "foc_cli_out" ".txt" in
  let cmd = Printf.sprintf "%s %s > %s 2>&1" cli args tmp in
  let rc = Sys.command cmd in
  let ic = open_in tmp in
  let len = in_channel_length ic in
  let out = really_input_string ic len in
  close_in ic;
  Sys.remove tmp;
  (rc, out)

let contains haystack needle =
  let lh = String.length haystack and ln = String.length needle in
  let rec go i =
    i + ln <= lh && (String.sub haystack i ln = needle || go (i + 1))
  in
  go 0

let check_run name args expect =
  let rc, out = run args in
  Alcotest.(check int) (name ^ ": exit code") 0 rc;
  List.iter
    (fun fragment ->
      Alcotest.(check bool)
        (Printf.sprintf "%s: output has %S (got %S)" name fragment out)
        true (contains out fragment))
    expect

let structure_file = Filename.temp_file "foc_cli" ".foc"
let db_file = Filename.temp_file "foc_cli_db" ".foc"

let test_gen () =
  check_run "gen"
    (Printf.sprintf "gen --class random-tree -n 60 --seed 3 --colours -o %s"
       structure_file)
    [ "wrote"; "order 60" ]

let test_count_all_engines () =
  List.iter
    (fun engine ->
      let _, out =
        run
          (Printf.sprintf "count -s %s -e %s \"#(x,y). E(x,y)\"" structure_file
             engine)
      in
      (* tree with 59 edges, both orientations *)
      Alcotest.(check bool)
        (engine ^ " count output: " ^ out)
        true (contains out "118"))
    [ "direct"; "cover"; "splitter"; "hanf"; "relalg" ]

let test_check_and_stats () =
  check_run "check"
    (Printf.sprintf
       "check -s %s --stats \"exists x. (#(y). E(x,y)) >= 1\"" structure_file)
    [ "true"; "# stats:" ]

let test_query () =
  check_run "query"
    (Printf.sprintf
       "query -s %s --head x --term \"#(y). E(x,y)\" --body \"R(x)\" --limit 2"
       structure_file)
    [ "rows" ]

let test_explain () =
  check_run "explain" "explain \"exists x. prime(#(y). (E(x,y) & B(y)))\""
    [ "plan:"; "localized" ]

(* --stats reports the trace ring's drops, and trace-check refuses a file
   that records any *)
let test_trace_drops () =
  let trace = Filename.temp_file "foc_cli_trace" ".json" in
  check_run "traced count"
    (Printf.sprintf "count -s %s --trace %s --stats \"#(x,y). E(x,y)\""
       structure_file trace)
    [ "118"; "trace.dropped_events=0" ];
  check_run "trace-check" ("trace-check " ^ trace) [ "ok" ];
  let oc = open_out trace in
  output_string oc
    "[{\"name\": \"trace.dropped_events\", \"ph\": \"M\", \"pid\": 1, \
     \"tid\": 0, \"args\": {\"dropped_events\": 5}}]\n";
  close_out oc;
  let rc, out = run ("trace-check " ^ trace) in
  Sys.remove trace;
  Alcotest.(check bool) "trace-check fails on drops" true (rc <> 0);
  Alcotest.(check bool)
    ("trace-check names the drops: " ^ out)
    true (contains out "5 spans dropped")

let test_sql_pipeline () =
  check_run "gendb"
    (Printf.sprintf "gendb --customers 40 --orders 120 -o %s" db_file)
    [ "wrote" ];
  check_run "sql"
    (Printf.sprintf
       "sql -s %s \"SELECT Country, COUNT(Id) FROM Customer GROUP BY \
        Country\" --limit 3"
       db_file)
    [ "FOC1>"; "rows" ]

let test_batch () =
  (* batch answers must round-trip against individual check runs, and the
     warm session must report cache hits *)
  let queries_file = Filename.temp_file "foc_cli_batch" ".txt" in
  let srcs =
    [
      "exists x. (#(y). E(x,y)) >= 1";
      "exists x. prime(#(y). (E(x,y) | E(y,x)))";
      "#(x,y). (E(x,y) & B(y)) >= 40";
    ]
  in
  let oc = open_out queries_file in
  output_string oc "# batch smoke queries\n\n";
  List.iter (fun s -> output_string oc (s ^ "\n")) srcs;
  close_out oc;
  let rc, out =
    run
      (Printf.sprintf "batch -s %s --repeat 2 --stats -j 1 %s" structure_file
         queries_file)
  in
  Sys.remove queries_file;
  Alcotest.(check int) "batch exit code" 0 rc;
  let expected =
    List.map
      (fun src ->
        let _, one = run (Printf.sprintf "check -s %s \"%s\"" structure_file src) in
        contains one "true")
      srcs
  in
  let batch_lines =
    String.split_on_char '\n' out
    |> List.filter (fun l -> l = "true" || l = "false")
    |> List.map (fun l -> l = "true")
  in
  Alcotest.(check (list bool)) "batch = per-query check" expected batch_lines;
  Alcotest.(check bool)
    ("warm session reports compiled hits: " ^ out)
    true
    (contains out "session.compiled_hits=3");
  Alcotest.(check bool)
    ("stats include session counters: " ^ out)
    true
    (contains out "session.evictions=")

let test_parse_error_exit () =
  let rc, _ = run (Printf.sprintf "check -s %s \"E(x\"" structure_file) in
  Alcotest.(check bool) "nonzero exit on parse error" true (rc <> 0)

(* an open sentence, a non-ground term and a repeated bound variable are
   usage errors on every engine: exit 2 with one line, not an uncaught
   exception *)
let test_malformed_questions () =
  List.iter
    (fun engine ->
      List.iter
        (fun args ->
          let rc, out =
            run (Printf.sprintf "%s -s %s -e %s" args structure_file engine)
          in
          let name = Printf.sprintf "-e %s %s" engine args in
          Alcotest.(check int) (name ^ ": exit code") 2 rc;
          Alcotest.(check bool)
            (Printf.sprintf "%s: one line (got %S)" name out)
            true
            (out <> "" && not (String.contains (String.trim out) '\n')))
        [ "check \"R(y)\""; "count \"#(x). E(x,y)\""; "count \"#(x,x). R(x)\"";
          "query --head x --body \"E(x,y)\"" ])
    [ "direct"; "relalg"; "naive" ]

let () =
  Alcotest.run "foc CLI"
    [
      ( "smoke",
        [
          Alcotest.test_case "gen" `Quick test_gen;
          Alcotest.test_case "count on all engines" `Quick test_count_all_engines;
          Alcotest.test_case "check + stats" `Quick test_check_and_stats;
          Alcotest.test_case "query" `Quick test_query;
          Alcotest.test_case "explain" `Quick test_explain;
          Alcotest.test_case "trace drops" `Quick test_trace_drops;
          Alcotest.test_case "gendb + sql" `Quick test_sql_pipeline;
          Alcotest.test_case "batch round-trip" `Quick test_batch;
          Alcotest.test_case "parse error exit" `Quick test_parse_error_exit;
          Alcotest.test_case "malformed questions exit 2" `Quick
            test_malformed_questions;
        ] );
    ]
