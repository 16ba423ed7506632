(* The foc command-line tool.

     foc gen   --class random-tree --n 1000 -o tree.foc
     foc check --structure tree.foc "exists x. prime(#(y). E(x,y))"
     foc count --structure tree.foc "#(x,y). E(x,y)"
     foc query --structure tree.foc --head x "#(y). E(x,y)" --body "R(x)"

   Engines: direct | cover | splitter | relalg | naive. *)

open Cmdliner

let engine_conv =
  Arg.enum
    [
      ("direct", `Direct);
      ("cover", `Cover);
      ("splitter", `Splitter);
      ("hanf", `Hanf);
      ("relalg", `Relalg);
      ("naive", `Naive);
    ]

let structure_arg =
  Arg.(
    required
    & opt (some file) None
    & info [ "s"; "structure" ] ~docv:"FILE" ~doc:"Structure file to query.")

let engine_arg =
  Arg.(
    value
    & opt engine_conv `Direct
    & info [ "e"; "engine" ] ~docv:"ENGINE"
        ~doc:
          "Evaluation engine: $(b,direct), $(b,cover), $(b,splitter) (the \
           paper's algorithm with three back-ends), $(b,relalg) (baseline) \
           or $(b,naive) (Definition 3.1 verbatim; exponential).")

let stats_arg =
  Arg.(value & flag & info [ "stats" ] ~doc:"Print engine statistics.")

let jobs_arg =
  Arg.(
    value & opt int 0
    & info [ "j"; "jobs" ] ~docv:"N"
        ~doc:
          "Domains used by the direct/cover/hanf back-ends. $(b,1) forces \
           the sequential path; $(b,0) (default) uses \
           Domain.recommended_domain_count (or \\$FOC_JOBS). All settings \
           return identical counts.")

let ball_cache_arg =
  Arg.(
    value & opt int 64
    & info [ "ball-cache-mb" ] ~docv:"MB"
        ~doc:
          "Memory bound (MiB) for each ball cache of the direct/cover/hanf \
           back-ends. $(b,0) keeps only the most recent ball. All settings \
           return identical counts; only memory and time change.")

let trace_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:
          "Record phase spans and write them to $(docv) as Chrome \
           trace_event JSON (load in chrome://tracing or \
           https://ui.perfetto.dev). Never changes results.")

let metrics_arg =
  Arg.(
    value & flag
    & info [ "metrics" ]
        ~doc:
          "Print the full metrics report (one line per metric, histograms \
           with buckets) and enable sweep-duration timing.")

let log_level_arg =
  Arg.(
    value & opt string "error"
    & info [ "log-level" ] ~docv:"LEVEL"
        ~doc:
          "Diagnostic verbosity on stderr: $(b,quiet), $(b,error), \
           $(b,info) (e.g. fallback decisions) or $(b,debug) (also echoes \
           each completed span as a logfmt line).")

let load_structure path =
  match Foc.Structure_io.load path with
  | Ok a -> a
  | Error e ->
      Printf.eprintf "error: %s\n" e;
      exit 2

(* applies --log-level / --trace before evaluation runs *)
let setup_obs ~trace ~log_level =
  (match Foc.Obs.Log.level_of_string log_level with
  | Some l ->
      Foc.Obs.Log.set_level l;
      if l = Foc.Obs.Log.Debug then
        Foc.Obs.Trace.set_logfmt_sink (Some prerr_endline)
  | None ->
      Printf.eprintf
        "error: bad --log-level %S (quiet|error|info|debug)\n" log_level;
      exit 2);
  if trace <> None then Foc.Obs.Trace.enable ()

(* report + export at command end; the export here also covers the
   baseline engines, which have no Engine.t to export for them *)
let finish_obs ~trace ~metrics eng =
  (match eng with
  | Some e when metrics ->
      List.iter
        (Printf.printf "# metric: %s\n")
        (Foc.Obs.Metrics.report (Foc.Engine.metrics e))
  | _ -> ());
  match trace with
  | Some path -> Foc.Obs.Trace.export_chrome path
  | None -> ()

let make_engine ?(jobs = 0) ?(ball_cache_mb = 64) ?trace_file engine =
  let jobs = if jobs <= 0 then Foc.Par.default_jobs () else jobs in
  let with_backend backend =
    Some
      (Foc.Engine.create
         ~config:
           {
             Foc.Engine.default_config with
             backend;
             jobs;
             ball_cache_mb;
             trace_file;
           }
         ())
  in
  match engine with
  | `Direct -> with_backend Foc.Engine.Direct
  | `Cover -> with_backend Foc.Engine.Cover
  | `Splitter ->
      with_backend (Foc.Engine.Splitter { max_rounds = 4; small = 32 })
  | `Hanf -> with_backend Foc.Engine.Hanf
  | `Relalg | `Naive -> None

(* one shared logfmt emitter behind "# stats:", so a newly added counter
   can never drift out of the printout (same line the bench prints) *)
let print_stats eng =
  Printf.printf "# stats: %s\n" (Foc.Engine.stats_line eng)

(* a question with free variables has no single answer on any engine:
   one error line and the usage exit code, before any engine runs *)
let require_closed what free =
  if not (Foc.Var.Set.is_empty free) then begin
    Printf.eprintf "error: %s has free variable(s) %s\n" what
      (String.concat ", " (Foc.Var.Set.elements free));
    exit 2
  end

let print_baseline_stats () =
  Printf.printf "# stats: %s\n" (Foc.Eval_obs.line ())

(* wall clock: with --jobs > 1, CPU time would sum across domains *)
let timed = Foc.Obs.Clock.timed

(* ---------------- check ---------------- *)

let check_cmd =
  let run structure engine jobs ball_cache_mb stats trace metrics log_level
      src =
    setup_obs ~trace ~log_level;
    let a = load_structure structure in
    let phi =
      try Foc.parse_formula src
      with Foc.Parser.Error (m, p) ->
        Printf.eprintf "parse error at %d: %s\n" p m;
        exit 2
    in
    require_closed "sentence" (Foc.Ast.free_formula phi);
    let eng = make_engine ~jobs ~ball_cache_mb ?trace_file:trace engine in
    let result, seconds =
      match eng with
      | Some eng ->
          let r = timed (fun () -> Foc.Engine.check eng a phi) in
          if stats then print_stats eng;
          r
      | None ->
          if engine = `Naive then
            timed (fun () ->
                Foc.Obs.span ~name:"naive" (fun () ->
                    Foc.Naive.sentence Foc.predicates a phi))
          else begin
            let r =
              timed (fun () ->
                  Foc.Obs.span ~name:"fallback" (fun () ->
                      Foc.Relalg.holds ~ctx:(Foc.Relalg.make_ctx ())
                        Foc.predicates a [] phi))
            in
            if stats then print_baseline_stats ();
            r
          end
    in
    finish_obs ~trace ~metrics eng;
    Printf.printf "%b\n" result;
    Printf.printf "# %.6fs\n" seconds
  in
  let src =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"SENTENCE" ~doc:"FOC(P) sentence to model-check.")
  in
  Cmd.v
    (Cmd.info "check" ~doc:"Model-check a FOC(P) sentence on a structure.")
    Term.(
      const run $ structure_arg $ engine_arg $ jobs_arg $ ball_cache_arg
      $ stats_arg $ trace_arg $ metrics_arg $ log_level_arg $ src)

(* ---------------- count ---------------- *)

let count_cmd =
  let run structure engine jobs ball_cache_mb stats trace metrics log_level
      src =
    setup_obs ~trace ~log_level;
    let a = load_structure structure in
    let term =
      try Foc.parse_term src
      with Foc.Parser.Error (m, p) ->
        Printf.eprintf "parse error at %d: %s\n" p m;
        exit 2
    in
    require_closed "term" (Foc.Ast.free_term term);
    let eng = make_engine ~jobs ~ball_cache_mb ?trace_file:trace engine in
    let result, seconds =
      match eng with
      | Some eng ->
          let r = timed (fun () -> Foc.Engine.eval_ground eng a term) in
          if stats then print_stats eng;
          r
      | None ->
          if engine = `Naive then
            timed (fun () ->
                Foc.Obs.span ~name:"naive" (fun () ->
                    Foc.Naive.ground_term Foc.predicates a term))
          else begin
            let r =
              timed (fun () ->
                  Foc.Obs.span ~name:"fallback" (fun () ->
                      Foc.Relalg.term_value ~ctx:(Foc.Relalg.make_ctx ())
                        Foc.predicates a [] term))
            in
            if stats then print_baseline_stats ();
            r
          end
    in
    finish_obs ~trace ~metrics eng;
    Printf.printf "%d\n" result;
    Printf.printf "# %.6fs\n" seconds
  in
  let src =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"TERM" ~doc:"Ground counting term to evaluate.")
  in
  Cmd.v
    (Cmd.info "count" ~doc:"Evaluate a ground counting term on a structure.")
    Term.(
      const run $ structure_arg $ engine_arg $ jobs_arg $ ball_cache_arg
      $ stats_arg $ trace_arg $ metrics_arg $ log_level_arg $ src)

(* ---------------- socket plumbing (query/serve/call/...) ---------------- *)

(* --socket PATH (Unix domain) wins over --tcp [HOST:]PORT *)
let parse_address socket tcp =
  match (socket, tcp) with
  | Some path, _ -> Some (Foc.Server.Unix_sock path)
  | None, Some spec -> (
      match String.rindex_opt spec ':' with
      | Some i -> (
          let host = String.sub spec 0 i in
          let port = String.sub spec (i + 1) (String.length spec - i - 1) in
          match int_of_string_opt port with
          | Some p -> Some (Foc.Server.Tcp (host, p))
          | None -> None)
      | None -> (
          match int_of_string_opt spec with
          | Some p -> Some (Foc.Server.Tcp ("127.0.0.1", p))
          | None -> None))
  | None, None -> None

let socket_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "socket" ] ~docv:"PATH" ~doc:"Serve on a Unix-domain socket.")

let tcp_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "tcp" ] ~docv:"[HOST:]PORT"
        ~doc:"Serve on TCP (default host 127.0.0.1; port 0 picks a free one).")

let timeout_arg =
  Arg.(
    value
    & opt (some float) None
    & info [ "timeout" ] ~docv:"SEC"
        ~doc:
          "Deadline (seconds) on connecting and on each response; without \
           it a hung server blocks forever. Exit code $(b,3) = cannot \
           connect, $(b,4) = timed out or connection lost.")

(* ---------------- query ---------------- *)

let query_cmd =
  let run structure engine jobs ball_cache_mb stats trace metrics log_level
      head terms body limit page socket tcp timeout =
    setup_obs ~trace ~log_level;
    (* remote: stream over a running foc serve (no structure file needed) *)
    (match parse_address socket tcp with
    | Some address ->
        let c =
          try Foc.Server_client.connect ?timeout address
          with Unix.Unix_error (e, _, _) ->
            Printf.eprintf "cannot connect: %s\n" (Unix.error_message e);
            exit 3
        in
        let nrows = ref 0 in
        let t0 = Unix.gettimeofday () in
        let req =
          {
            Foc.Server_protocol.q_head = head;
            q_terms = terms;
            q_body = body;
            q_limit = Some limit;
            q_chunk = page;
            q_after = None;
          }
        in
        (match
           Foc.Server_client.query_iter c req (fun (tuple, values) ->
               incr nrows;
               Array.iter (Printf.printf "%d ") tuple;
               print_string "| ";
               Array.iter (Printf.printf "%d ") values;
               print_newline ())
         with
        | Ok producer ->
            Printf.printf "# %d rows, %.6fs (streamed, producer=%s)\n" !nrows
              (Unix.gettimeofday () -. t0)
              producer;
            Foc.Server_client.close c;
            exit 0
        | Error e ->
            Printf.eprintf "server error: %s\n" e;
            exit 1
        | exception Foc.Server_client.Timeout ->
            Printf.eprintf "timeout\n";
            exit 4
        | exception End_of_file ->
            Printf.eprintf "connection lost\n";
            exit 4)
    | None -> ());
    let a =
      match structure with
      | Some path -> load_structure path
      | None ->
          Printf.eprintf
            "error: query needs --structure FILE (or --socket/--tcp for a \
             running server)\n";
          exit 2
    in
    let parse_t s =
      try Foc.parse_term s
      with Foc.Parser.Error (m, p) ->
        Printf.eprintf "parse error in term at %d: %s\n" p m;
        exit 2
    in
    let body_f =
      try Foc.parse_formula body
      with Foc.Parser.Error (m, p) ->
        Printf.eprintf "parse error in body at %d: %s\n" p m;
        exit 2
    in
    let q =
      try
        Foc.Query.make ~head_vars:head
          ~head_terms:(List.map parse_t terms)
          body_f
      with Invalid_argument m ->
        Printf.eprintf "bad query: %s\n" m;
        exit 2
    in
    let eng = make_engine ~jobs ~ball_cache_mb ?trace_file:trace engine in
    (* --page: stream through a pull cursor instead of materialising;
       rows print as they are produced and --limit caps production, not
       just printing *)
    (match (page, eng) with
    | Some _, None ->
        Printf.eprintf
          "error: --page needs a localized engine \
           (direct|cover|splitter|hanf)\n";
        exit 2
    | Some _, Some eng ->
        let t0 = Unix.gettimeofday () in
        let cur = Foc.Engine.enumerate eng ~limit a q in
        let ttfr = ref 0. in
        let nrows = ref 0 in
        let rec drain () =
          match cur.Foc.Enum.next () with
          | None -> ()
          | Some (tuple, values) ->
              if !nrows = 0 then ttfr := Unix.gettimeofday () -. t0;
              incr nrows;
              Array.iter (Printf.printf "%d ") tuple;
              print_string "| ";
              Array.iter (Printf.printf "%d ") values;
              print_newline ();
              drain ()
        in
        drain ();
        cur.Foc.Enum.close ();
        if stats then print_stats eng;
        finish_obs ~trace ~metrics (Some eng);
        Printf.printf
          "# %d rows, %.6fs (streamed, producer=%s, ttfr %.6fs)\n" !nrows
          (Unix.gettimeofday () -. t0)
          cur.Foc.Enum.producer !ttfr;
        exit 0
    | None, _ -> ());
    let rows, seconds =
      match eng with
      | Some eng ->
          let r = timed (fun () -> Foc.Engine.run_query eng a q) in
          if stats then print_stats eng;
          r
      | None ->
          if engine = `Naive then
            timed (fun () ->
                Foc.Obs.span ~name:"naive" (fun () ->
                    Foc.Naive.query Foc.predicates a q))
          else begin
            let r =
              timed (fun () ->
                  Foc.Obs.span ~name:"fallback" (fun () ->
                      Foc.Relalg.query ~ctx:(Foc.Relalg.make_ctx ())
                        Foc.predicates a q))
            in
            if stats then print_baseline_stats ();
            r
          end
    in
    finish_obs ~trace ~metrics eng;
    Printf.printf "# %d rows, %.6fs\n" (List.length rows) seconds;
    List.iteri
      (fun i (tuple, values) ->
        if i < limit then begin
          Array.iter (Printf.printf "%d ") tuple;
          print_string "| ";
          Array.iter (Printf.printf "%d ") values;
          print_newline ()
        end)
      rows
  in
  let head =
    Arg.(
      value & opt_all string []
      & info [ "head" ] ~docv:"VAR" ~doc:"Head variable (repeatable).")
  in
  let terms =
    Arg.(
      value & opt_all string []
      & info [ "term" ] ~docv:"TERM" ~doc:"Head counting term (repeatable).")
  in
  let body =
    Arg.(
      required
      & opt (some string) None
      & info [ "body" ] ~docv:"FORMULA" ~doc:"Query body.")
  in
  let limit =
    Arg.(
      value & opt int 20
      & info [ "limit" ] ~docv:"N"
          ~doc:
            "Print at most N rows (with $(b,--page) or a remote server, \
             also stop producing after N rows).")
  in
  let page =
    Arg.(
      value
      & opt (some int) None
      & info [ "page" ] ~docv:"N"
          ~doc:
            "Stream answers instead of materialising them: locally, pull \
             rows one at a time from an enumeration cursor (needs a \
             localized engine); remotely, fetch N rows per chunk.")
  in
  let structure_opt =
    Arg.(
      value
      & opt (some file) None
      & info [ "s"; "structure" ] ~docv:"FILE"
          ~doc:
            "Structure file (required unless querying a remote server \
             with $(b,--socket)/$(b,--tcp)).")
  in
  Cmd.v
    (Cmd.info "query" ~doc:"Run a FOC1(P)-query (Definition 5.2).")
    Term.(
      const run $ structure_opt $ engine_arg $ jobs_arg $ ball_cache_arg
      $ stats_arg $ trace_arg $ metrics_arg $ log_level_arg $ head $ terms
      $ body $ limit $ page $ socket_arg $ tcp_arg $ timeout_arg)

(* ---------------- gen ---------------- *)

let gen_cmd =
  let class_conv =
    Arg.enum
      (List.map (fun (c : Foc.Classes.t) -> (c.name, c)) Foc.Classes.standard)
  in
  let run cls n seed colours output =
    let g = cls.Foc.Classes.generate ~seed ~n in
    let a =
      if colours then begin
        let rng = Random.State.make [| seed; 17 |] in
        Foc.Db_gen.colored_digraph rng ~graph:g ~orient:`Both ~p_red:0.3
          ~p_blue:0.4 ~p_green:0.3
      end
      else Foc.Structure.of_graph g
    in
    match output with
    | Some path ->
        Foc.Structure_io.save path a;
        Printf.printf "wrote %s (order %d, size %d)\n" path
          (Foc.Structure.order a) (Foc.Structure.size a)
    | None -> print_string (Foc.Structure_io.to_string a)
  in
  let cls =
    Arg.(
      required
      & opt (some class_conv) None
      & info [ "class" ] ~docv:"CLASS"
          ~doc:"Workload class (random-tree, grid, clique, ...).")
  in
  let n =
    Arg.(value & opt int 100 & info [ "n" ] ~docv:"N" ~doc:"Target order.")
  in
  let seed =
    Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED" ~doc:"Random seed.")
  in
  let colours =
    Arg.(
      value & flag
      & info [ "colours" ]
          ~doc:"Add random R/B/G unary relations (Example 5.4 style).")
  in
  let output =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Output file (default stdout).")
  in
  Cmd.v
    (Cmd.info "gen" ~doc:"Generate a workload structure.")
    Term.(const run $ cls $ n $ seed $ colours $ output)

(* ---------------- trace-check ---------------- *)

(* Validate a --trace output: parseable JSON, an array of complete
   ("ph":"X") events each carrying name/ts/dur/pid/tid, whose spans nest
   like a stack within each tid (a span recorded by a parallel task must
   sit inside its domain's enclosing spans, never straddle one), and no
   drop record (a trace missing spans is not a whole trace). Used by
   ci.sh to fail the build on malformed exports; no external JSON tool
   needed. *)
let trace_check_cmd =
  let run path =
    let contents =
      try
        let ic = open_in_bin path in
        let len = in_channel_length ic in
        let s = really_input_string ic len in
        close_in ic;
        s
      with Sys_error e ->
        Printf.eprintf "error: %s\n" e;
        exit 1
    in
    match Foc.Obs.Json.parse contents with
    | Error e ->
        Printf.eprintf "trace-check: %s: invalid JSON: %s\n" path e;
        exit 1
    | Ok (Foc.Obs.Json.List events) ->
        let bad = ref 0 and dropped = ref 0 in
        (* (tid, start ns, end ns) of every well-formed event *)
        let spans =
          List.concat
            (List.mapi
               (fun i ev ->
                 let field k = Foc.Obs.Json.member k ev in
                 match
                   (field "name", field "ph", field "ts", field "dur",
                    field "pid", field "tid")
                 with
                 | Some (Foc.Obs.Json.Str name), Some (Foc.Obs.Json.Str "M"), _, _, _, _
                   when name = Foc.Obs.Trace.dropped_name -> (
                     match
                       Option.bind (field "args")
                         (Foc.Obs.Json.member "dropped_events")
                     with
                     | Some (Foc.Obs.Json.Num n) ->
                         dropped := !dropped + Float.to_int n;
                         []
                     | _ ->
                         incr bad;
                         Printf.eprintf "trace-check: %s: bad event %d\n" path i;
                         [])
                 | ( Some (Foc.Obs.Json.Str _),
                     Some (Foc.Obs.Json.Str "X"),
                     Some (Foc.Obs.Json.Num ts),
                     Some (Foc.Obs.Json.Num dur),
                     Some (Foc.Obs.Json.Num _),
                     Some (Foc.Obs.Json.Num tid) )
                   when ts >= 0. && dur >= 0. ->
                     let ns x = Float.to_int (Float.round (x *. 1e3)) in
                     [ (Float.to_int tid, ns ts, ns ts + ns dur) ]
                 | _ ->
                     incr bad;
                     Printf.eprintf "trace-check: %s: bad event %d\n" path i;
                     [])
               events)
        in
        if !bad > 0 then exit 1;
        if !dropped > 0 then begin
          Printf.eprintf
            "trace-check: %s: %d spans dropped (the trace ring was full)\n"
            path !dropped;
          exit 1
        end;
        (* per tid, by start and then longest first: each span must end
           before the innermost open span that contains its start *)
        let open_spans = Hashtbl.create 8 in
        List.iter
          (fun (tid, t0, t1) ->
            let rec close = function
              | e :: rest when e <= t0 -> close rest
              | stack -> stack
            in
            let stack =
              close (Option.value ~default:[] (Hashtbl.find_opt open_spans tid))
            in
            (match stack with
            | e :: _ when t1 > e ->
                Printf.eprintf
                  "trace-check: %s: span [%d, %d] ns overlaps its parent on \
                   tid %d\n"
                  path t0 t1 tid;
                exit 1
            | _ -> ());
            Hashtbl.replace open_spans tid (t1 :: stack))
          (List.sort
             (fun (tid, t0, t1) (tid', t0', t1') ->
               compare (tid, t0, -t1) (tid', t0', -t1'))
             spans);
        Printf.printf "trace-check: %s: ok (%d events, nested)\n" path
          (List.length events)
    | Ok _ ->
        Printf.eprintf "trace-check: %s: top level is not an array\n" path;
        exit 1
  in
  let path =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"FILE" ~doc:"Trace file written by $(b,--trace).")
  in
  Cmd.v
    (Cmd.info "trace-check"
       ~doc:
         "Validate a Chrome trace_event JSON file produced by $(b,--trace); \
          fails when the file records dropped spans.")
    Term.(const run $ path)

(* ---------------- gendb / sql ---------------- *)

let gendb_cmd =
  let run customers orders countries cities seed output =
    let rng = Random.State.make [| seed |] in
    let d =
      Foc.Db_gen.customer_order rng ~customers ~orders ~countries ~cities
    in
    match output with
    | Some path ->
        Foc.Structure_io.save path d.Foc.Db_gen.db;
        Printf.printf "wrote %s (order %d, size %d)\n" path
          (Foc.Structure.order d.Foc.Db_gen.db)
          (Foc.Structure.size d.Foc.Db_gen.db)
    | None -> print_string (Foc.Structure_io.to_string d.Foc.Db_gen.db)
  in
  let customers =
    Arg.(value & opt int 100 & info [ "customers" ] ~docv:"N" ~doc:"Customers.")
  in
  let orders =
    Arg.(value & opt int 400 & info [ "orders" ] ~docv:"N" ~doc:"Orders.")
  in
  let countries =
    Arg.(value & opt int 10 & info [ "countries" ] ~docv:"N" ~doc:"Countries.")
  in
  let cities =
    Arg.(value & opt int 20 & info [ "cities" ] ~docv:"N" ~doc:"Cities.")
  in
  let seed =
    Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED" ~doc:"Random seed.")
  in
  let output =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Output file (default stdout).")
  in
  Cmd.v
    (Cmd.info "gendb"
       ~doc:"Generate a Customer/Order database (Example 5.3 schema).")
    Term.(const run $ customers $ orders $ countries $ cities $ seed $ output)

let sql_cmd =
  let run structure engine jobs ball_cache_mb stats trace metrics log_level
      src limit =
    setup_obs ~trace ~log_level;
    let a = load_structure structure in
    let q =
      try
        Foc.Sql_compile.parse_to_query Foc.Sql_schema.customer_order
          ~consts:[ ("Berlin", Foc.Db_gen.berlin_rel) ]
          src
      with Foc.Sql_compile.Error m ->
        Printf.eprintf "SQL error: %s\n" m;
        exit 2
    in
    Printf.printf "FOC1> %s\n" (Format.asprintf "%a" Foc.Query.pp q);
    let eng = make_engine ~jobs ~ball_cache_mb ?trace_file:trace engine in
    let rows, seconds =
      match eng with
      | Some eng ->
          let r = timed (fun () -> Foc.Engine.run_query eng a q) in
          if stats then print_stats eng;
          r
      | None ->
          if engine = `Naive then
            timed (fun () ->
                Foc.Obs.span ~name:"naive" (fun () ->
                    Foc.Naive.query Foc.predicates a q))
          else begin
            let r =
              timed (fun () ->
                  Foc.Obs.span ~name:"fallback" (fun () ->
                      Foc.Relalg.query ~ctx:(Foc.Relalg.make_ctx ())
                        Foc.predicates a q))
            in
            if stats then print_baseline_stats ();
            r
          end
    in
    finish_obs ~trace ~metrics eng;
    Printf.printf "# %d rows, %.6fs\n" (List.length rows) seconds;
    List.iteri
      (fun i (tuple, values) ->
        if i < limit then begin
          Array.iter (Printf.printf "%d ") tuple;
          print_string "| ";
          Array.iter (Printf.printf "%d ") values;
          print_newline ()
        end)
      rows
  in
  let src =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"SQL"
          ~doc:
            "SQL COUNT statement over the Customer/Order schema (Example \
             5.3); the literal 'Berlin' is bound to the generated marker.")
  in
  let limit =
    Arg.(
      value & opt int 20
      & info [ "limit" ] ~docv:"N" ~doc:"Print at most N rows.")
  in
  Cmd.v
    (Cmd.info "sql" ~doc:"Run an SQL COUNT statement compiled to FOC1.")
    Term.(
      const run $ structure_arg $ engine_arg $ jobs_arg $ ball_cache_arg
      $ stats_arg $ trace_arg $ metrics_arg $ log_level_arg $ src $ limit)

let budget_arg =
  Arg.(
    value & opt int 256
    & info [ "budget-mb" ] ~docv:"MB"
        ~doc:
          "Session artifact-cache budget (MiB): covers, ball contexts, \
           Hanf partitions and compiled sentences share this bound. \
           $(b,0) keeps only the most recent artifact. Never changes \
           results.")

(* ---------------- serve / call ---------------- *)

let serve_cmd =
  let run structure engine jobs ball_cache_mb budget_mb socket tcp max_queue
      client_budget max_batch slow_ms slow_log trace trace_cap store
      checkpoint_every max_cursors log_level =
    setup_obs ~trace:None ~log_level;
    let a = load_structure structure in
    let address =
      match parse_address socket tcp with
      | Some addr -> addr
      | None ->
          Printf.eprintf
            "error: serve needs --socket PATH or --tcp [HOST:]PORT\n";
          exit 2
    in
    let backend =
      match engine with
      | `Direct -> Foc.Engine.Direct
      | `Cover -> Foc.Engine.Cover
      | `Splitter -> Foc.Engine.Splitter { max_rounds = 4; small = 32 }
      | `Hanf -> Foc.Engine.Hanf
      | `Relalg | `Naive ->
          Printf.eprintf
            "error: serve runs on a session engine \
             (direct|cover|splitter|hanf)\n";
          exit 2
    in
    let jobs = if jobs <= 0 then Foc.Par.default_jobs () else jobs in
    let cfg =
      {
        (Foc.Server.default_config address) with
        Foc.Server.engine =
          {
            Foc.Engine.default_config with
            backend;
            jobs = 1;
            ball_cache_mb;
          };
        budget_mb;
        jobs;
        max_queue;
        client_budget;
        max_batch;
        slow_ms;
        slow_log;
        trace_file = trace;
        trace_cap;
        store;
        checkpoint_every;
        max_cursors;
      }
    in
    let srv = Foc.Server.start cfg a in
    (* stop gracefully on ctrl-C / TERM: drain in-flight, then exit *)
    let on_signal _ = Thread.create (fun () -> Foc.Server.stop srv) () |> ignore in
    (try Sys.set_signal Sys.sigint (Sys.Signal_handle on_signal)
     with Invalid_argument _ -> ());
    (try Sys.set_signal Sys.sigterm (Sys.Signal_handle on_signal)
     with Invalid_argument _ -> ());
    (match Foc.Server.address srv with
    | Foc.Server.Unix_sock path -> Printf.printf "listening on unix:%s\n%!" path
    | Foc.Server.Tcp (host, port) ->
        Printf.printf "listening on tcp:%s:%d\n%!" host port);
    Foc.Server.wait srv;
    Printf.printf "server stopped after %d writes\n" (Foc.Server.version srv)
  in
  let max_queue =
    Arg.(
      value & opt int 256
      & info [ "max-queue" ] ~docv:"N"
          ~doc:
            "Bound on queued requests; submissions beyond it are shed with \
             an $(b,overloaded) error (admission control).")
  in
  let client_budget =
    Arg.(
      value & opt int 0
      & info [ "client-budget" ] ~docv:"N"
          ~doc:
            "Requests allowed per connection; once spent, requests are \
             rejected ($(b,ping) stays free). $(b,0) = unlimited.")
  in
  let max_batch =
    Arg.(
      value & opt int 32
      & info [ "max-batch" ] ~docv:"N"
          ~doc:
            "Most consecutive $(b,check) requests grouped into one \
             parallel session batch.")
  in
  let slow_ms =
    Arg.(
      value & opt float 0.
      & info [ "slow-ms" ] ~docv:"MS"
          ~doc:
            "Slow-query threshold: any request whose total latency exceeds \
             $(docv) milliseconds emits one logfmt line (timing breakdown \
             + plan summary) to the slow-query sink. $(b,0) (default) \
             disables the log.")
  in
  let slow_log =
    Arg.(
      value
      & opt (some string) None
      & info [ "slow-log" ] ~docv:"FILE"
          ~doc:
            "Slow-query sink: a size-rotated file at $(docv) (FILE.1..3 \
             kept). Default: stderr.")
  in
  let serve_trace =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace" ] ~docv:"FILE"
          ~doc:
            "Record phase spans (including session worker domains) for the \
             daemon's lifetime and export them to $(docv) as Chrome \
             trace_event JSON on shutdown. Never changes results.")
  in
  let trace_cap =
    Arg.(
      value
      & opt (some int) None
      & info [ "trace-cap" ] ~docv:"N"
          ~doc:
            "Bound each per-domain span buffer to $(docv) events; the \
             oldest events are overwritten and counted as drops (surfaced \
             in $(b,stats) and $(b,metrics)). Default 262144.")
  in
  let store_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "store" ] ~docv:"DIR"
          ~doc:
            "Persistent prepared-structure store: load the newest valid \
             snapshot from $(docv) on start (replaying its write-ahead \
             log) instead of rebuilding covers and partitions from \
             scratch — falling back to a full rebuild if the store is \
             missing or damaged — then log every accepted write to the \
             WAL and checkpoint on graceful shutdown.")
  in
  let checkpoint_every_arg =
    Arg.(
      value & opt int 1024
      & info [ "checkpoint-every" ] ~docv:"N"
          ~doc:
            "With $(b,--store): also write a fresh snapshot (compacting \
             the WAL) after every $(docv) accepted writes. $(b,0) \
             disables periodic checkpoints; graceful shutdown still \
             checkpoints.")
  in
  let max_cursors_arg =
    Arg.(
      value & opt int 8
      & info [ "max-cursors" ] ~docv:"N"
          ~doc:
            "Most streaming query cursors one connection may hold open; \
             a $(b,query) over the budget is rejected.")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the concurrent query-server daemon: line-oriented JSON over \
          a Unix or TCP socket, many clients multiplexed onto one query \
          session (try: socat - UNIX-CONNECT:/tmp/foc.sock).")
    Term.(
      const run $ structure_arg $ engine_arg $ jobs_arg $ ball_cache_arg
      $ budget_arg $ socket_arg
      $ tcp_arg $ max_queue $ client_budget $ max_batch $ slow_ms
      $ slow_log $ serve_trace $ trace_cap $ store_arg
      $ checkpoint_every_arg $ max_cursors_arg $ log_level_arg)

(* distinct exit codes so scripts can tell failure modes apart:
   2 = usage, 3 = cannot connect, 4 = timeout / connection lost,
   1 = the server answered with an error (or a malformed line) *)
let require_address ~cmd socket tcp =
  match parse_address socket tcp with
  | Some addr -> addr
  | None ->
      Printf.eprintf "error: %s needs --socket PATH or --tcp [HOST:]PORT\n"
        cmd;
      exit 2

let connect_or_die ?timeout address =
  try Foc.Server_client.connect ?timeout address with
  | Unix.Unix_error (e, _, _) ->
      Printf.eprintf "error: cannot connect: %s\n" (Unix.error_message e);
      exit 3
  | Foc.Server_client.Timeout ->
      Printf.eprintf "error: connect timed out\n";
      exit 3

let call_cmd =
  let run socket tcp timeout requests =
    let address = require_address ~cmd:"call" socket tcp in
    let c = connect_or_die ?timeout address in
    let failed = ref false in
    List.iter
      (fun line ->
        Foc.Server_client.send_raw c line;
        match Foc.Server_client.recv_raw c with
        | resp ->
            print_endline resp;
            (match Foc.Server_protocol.parse_response resp with
            | Ok (_, Foc.Server_protocol.Error _) | Error _ -> failed := true
            | Ok _ -> ())
        | exception End_of_file ->
            Printf.eprintf "error: server closed the connection\n";
            exit 4
        | exception Foc.Server_client.Timeout ->
            Printf.eprintf "error: no response within the deadline\n";
            exit 4)
      requests;
    Foc.Server_client.close c;
    if !failed then exit 1
  in
  let requests =
    Arg.(
      non_empty & pos_all string []
      & info [] ~docv:"REQUEST"
          ~doc:
            "Request line(s) to send, e.g. $(b,{\"op\":\"ping\"}) — sent \
             verbatim, one response line printed per request. Exits \
             non-zero if any response is an error.")
  in
  Cmd.v
    (Cmd.info "call"
       ~doc:"Send raw protocol request lines to a running $(b,foc serve).")
    Term.(const run $ socket_arg $ tcp_arg $ timeout_arg $ requests)

(* ---------------- explain ---------------- *)

(* run one request against a live server, mapping failure modes to the
   same exit codes as [foc call] *)
let remote_rpc ?timeout address req =
  let c = connect_or_die ?timeout address in
  Fun.protect
    ~finally:(fun () -> Foc.Server_client.close c)
    (fun () ->
      match Foc.Server_client.rpc c req with
      | resp -> resp
      | exception End_of_file ->
          Printf.eprintf "error: server closed the connection\n";
          exit 4
      | exception Foc.Server_client.Timeout ->
          Printf.eprintf "error: no response within the deadline\n";
          exit 4)

let print_remote_explain (e : Foc.Server_protocol.explain) =
  Printf.printf "result:  %b (structure version %d)\n" e.result e.version;
  Printf.printf "cached:  %b\n" e.cached;
  Printf.printf "replans: %d (process-wide)\n" e.replans;
  if e.plans = [] then
    print_endline
      "plans:   none — no baseline conjunction planning ran (cached \
       answer, or handled entirely by locality kernels)"
  else
    List.iteri
      (fun i (p : Foc.Server_protocol.plan_info) ->
        Printf.printf "plan %d:  join order [%s]%s\n" i
          (String.concat " "
             (List.map string_of_int p.order))
          (if p.replanned then "  (adaptive replan)" else "");
        List.iteri
          (fun j (est, act) ->
            Printf.printf "  step %d: predicted %d rows, actual %d\n" j est
              act)
          p.steps)
      e.plans

let explain_cmd =
  let run kind socket tcp timeout src =
    match parse_address socket tcp with
    | Some address ->
        (* remote: evaluate on the server and report the planner's story *)
        if kind = `Term then begin
          Printf.eprintf
            "error: remote explain takes a sentence (no --kind term)\n";
          exit 2
        end;
        (match remote_rpc ?timeout address (Foc.Server_protocol.Explain src)
         with
        | Foc.Server_protocol.Explain_r e -> print_remote_explain e
        | Foc.Server_protocol.Error m ->
            Printf.eprintf "error: %s\n" m;
            exit 1
        | _ ->
            Printf.eprintf "error: unexpected response\n";
            exit 1)
    | None -> (
        (* local: static evaluation plan, no structure needed *)
        match kind with
        | `Term -> begin
            match Foc.Parser.term_result Foc.predicates src with
            | Error e ->
                Printf.eprintf "%s\n" e;
                exit 2
            | Ok t ->
                Format.printf "%a@." Foc.Plan.pp (Foc.Plan.term_plan t)
          end
        | `Formula -> begin
            match Foc.Parser.formula_result Foc.predicates src with
            | Error e ->
                Printf.eprintf "%s\n" e;
                exit 2
            | Ok f ->
                Format.printf "%a@." Foc.Plan.pp (Foc.Plan.formula_plan f)
          end)
  in
  let kind =
    Arg.(
      value
      & opt (enum [ ("term", `Term); ("formula", `Formula) ]) `Formula
      & info [ "kind" ] ~docv:"KIND" ~doc:"Parse as $(b,term) or $(b,formula).")
  in
  let src =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"EXPR" ~doc:"Expression to explain.")
  in
  Cmd.v
    (Cmd.info "explain"
       ~doc:
         "Show the evaluation plan. Without an address: the static plan \
          (kernels, certified radii, decomposition sizes, fallbacks). With \
          $(b,--socket)/$(b,--tcp): evaluate on a running $(b,foc serve) \
          and report the join order, predicted vs actual rows per step, \
          and replan events.")
    Term.(const run $ kind $ socket_arg $ tcp_arg $ timeout_arg $ src)

(* ---------------- metrics / top ---------------- *)

let metrics_cmd =
  let run socket tcp timeout =
    let address = require_address ~cmd:"metrics" socket tcp in
    match remote_rpc ?timeout address Foc.Server_protocol.Metrics with
    | Foc.Server_protocol.Metrics_r page -> print_string page
    | Foc.Server_protocol.Error m ->
        Printf.eprintf "error: %s\n" m;
        exit 1
    | _ ->
        Printf.eprintf "error: unexpected response\n";
        exit 1
  in
  Cmd.v
    (Cmd.info "metrics"
       ~doc:
         "Fetch the Prometheus text exposition (request latency \
          histograms, cache counters, planner estimates) from a running \
          $(b,foc serve).")
    Term.(const run $ socket_arg $ tcp_arg $ timeout_arg)

let top_cmd =
  let run socket tcp timeout interval count =
    let address = require_address ~cmd:"top" socket tcp in
    let c = connect_or_die ?timeout address in
    let tty = Unix.isatty Unix.stdout in
    let prev_served = ref 0 and prev_version = ref 0 and polls = ref 0 in
    let show (s : Foc.Server_protocol.stats) =
      incr polls;
      let d_served = s.served - !prev_served
      and d_writes = s.version - !prev_version in
      let rate =
        if !polls = 1 || interval <= 0. then 0.
        else float_of_int d_served /. interval
      in
      if tty then print_string "\027[H\027[2J";
      Printf.printf "foc top — poll %d (every %.1fs)\n\n" !polls interval;
      Printf.printf "served       %d  (+%d, %.1f/s)\n" s.served d_served rate;
      Printf.printf "writes       %d  (+%d)\n" s.version d_writes;
      Printf.printf "connections  %d\n" s.connections;
      Printf.printf "shed         %d    rejected %d    disconnects %d\n"
        s.shed s.rejected s.disconnects;
      Printf.printf "read latency p50 %dµs   p95 %dµs   p99 %dµs\n" s.p50_us
        s.p95_us s.p99_us;
      if s.trace_dropped > 0 then
        Printf.printf "trace drops  %d\n" s.trace_dropped;
      if s.session <> "" then Printf.printf "session      %s\n" s.session;
      if s.planner <> "" then Printf.printf "planner      %s\n" s.planner;
      if s.source <> "" then
        Printf.printf "cold start   %s in %dms\n" s.source s.load_ms;
      flush stdout;
      prev_served := s.served;
      prev_version := s.version
    in
    let rec loop remaining =
      if remaining <> 0 then begin
        (match Foc.Server_client.rpc c Foc.Server_protocol.Stats with
        | Foc.Server_protocol.Stats_r s -> show s
        | Foc.Server_protocol.Error m ->
            Printf.eprintf "error: %s\n" m;
            exit 1
        | _ ->
            Printf.eprintf "error: unexpected response\n";
            exit 1
        | exception End_of_file ->
            Printf.eprintf "error: server closed the connection\n";
            exit 4
        | exception Foc.Server_client.Timeout ->
            Printf.eprintf "error: no response within the deadline\n";
            exit 4);
        let remaining = if remaining > 0 then remaining - 1 else remaining in
        if remaining <> 0 then begin
          Unix.sleepf (max 0.05 interval);
          loop remaining
        end
      end
    in
    loop (if count <= 0 then -1 else count);
    Foc.Server_client.close c
  in
  let interval =
    Arg.(
      value & opt float 2.
      & info [ "interval" ] ~docv:"SEC" ~doc:"Seconds between polls.")
  in
  let count =
    Arg.(
      value & opt int 0
      & info [ "count" ] ~docv:"N"
          ~doc:"Stop after $(docv) polls; $(b,0) polls until interrupted.")
  in
  Cmd.v
    (Cmd.info "top"
       ~doc:
         "Live view of a running $(b,foc serve): throughput, latency \
          percentiles, admission-control and cache counters, refreshed \
          every $(b,--interval) seconds.")
    Term.(const run $ socket_arg $ tcp_arg $ timeout_arg $ interval $ count)

(* ---------------- snapshot ---------------- *)

(* `foc snapshot` manages the persistent prepared-structure store offline:
   save prewarms a session and snapshots it, info describes a store
   directory, load verify-restores one (exit 1 on a damaged store, exit 5
   on an answer mismatch so CI can gate on bit-identity). *)

let session_backend ~cmd engine =
  match engine with
  | `Direct -> Foc.Engine.Direct
  | `Cover -> Foc.Engine.Cover
  | `Splitter -> Foc.Engine.Splitter { max_rounds = 4; small = 32 }
  | `Hanf -> Foc.Engine.Hanf
  | `Relalg | `Naive ->
      Printf.eprintf
        "error: %s runs on a session engine (direct|cover|splitter|hanf)\n"
        cmd;
      exit 2

let store_dir_arg =
  Arg.(
    required
    & pos 0 (some string) None
    & info [] ~docv:"DIR" ~doc:"Store directory.")

let radii_arg =
  Arg.(
    value
    & opt (list int) [ 1 ]
    & info [ "radii" ] ~docv:"R,..."
        ~doc:
          "Locality radii to prewarm and persist: for each radius the \
           neighbourhood cover and Hanf class partition are built \
           eagerly and written into the snapshot.")

let snapshot_queries_arg =
  Arg.(
    value
    & opt_all string []
    & info [ "query" ] ~docv:"SENTENCE"
        ~doc:
          "FOC(P) sentence evaluated after the operation (repeatable). \
           $(b,snapshot load) also re-evaluates it on a fresh engine and \
           fails (exit 5) unless the answers are bit-identical.")

let parse_sentences srcs =
  List.map
    (fun src ->
      try (src, Foc.parse_formula src)
      with Foc.Parser.Error (m, p) ->
        Printf.eprintf "parse error in %S at %d: %s\n" src p m;
        exit 2)
    srcs

let snapshot_save_cmd =
  let run structure engine ball_cache_mb budget_mb radii
      queries log_level dir =
    setup_obs ~trace:None ~log_level;
    let a = load_structure structure in
    let config =
      {
        Foc.Engine.default_config with
        backend = session_backend ~cmd:"snapshot save" engine;
        jobs = 1;
        ball_cache_mb;
      }
    in
    let sess = Foc.Session.create ~budget_mb ~config a in
    let (), warm_s =
      timed (fun () ->
          Foc.Session.prewarm ~radii sess;
          List.iter
            (fun (_, phi) -> ignore (Foc.Session.check sess phi))
            (parse_sentences queries))
    in
    let path, save_s = timed (fun () -> Foc.Session.save sess ~dir ~version:0) in
    Printf.printf "saved %s  (%d artifacts; prewarm %.3fs, write %.3fs)\n"
      path
      (Foc.Session.cached_artifacts sess)
      warm_s save_s
  in
  Cmd.v
    (Cmd.info "save"
       ~doc:
         "Prewarm a session over a structure (Gaifman graph, statistics, \
          covers and Hanf partitions at $(b,--radii)) and snapshot it \
          into a store directory for instant cold starts.")
    Term.(
      const run $ structure_arg $ engine_arg $ ball_cache_arg
      $ budget_arg $ radii_arg $ snapshot_queries_arg
      $ log_level_arg $ store_dir_arg)

let snapshot_info_cmd =
  let run dir =
    print_string (Foc.Store.describe dir);
    flush stdout
  in
  Cmd.v
    (Cmd.info "info"
       ~doc:
         "Describe a store directory: every snapshot's section table with \
          sizes and checksum status, plus WAL record counts and torn-tail \
          flags.")
    Term.(const run $ store_dir_arg)

let snapshot_load_cmd =
  let run engine ball_cache_mb budget_mb queries log_level dir
      =
    setup_obs ~trace:None ~log_level;
    let config =
      {
        Foc.Engine.default_config with
        backend = session_backend ~cmd:"snapshot load" engine;
        jobs = 1;
        ball_cache_mb;
      }
    in
    let loaded, load_s =
      timed (fun () -> Foc.Session.load ~budget_mb ~config ~dir ())
    in
    match loaded with
    | Error e ->
        Printf.eprintf "error: %s\n" e;
        exit 1
    | Ok l ->
        Printf.printf
          "loaded snapshot v%d + %d WAL record%s%s -> version %d  (%d \
           artifacts, %.3fs)\n"
          l.snapshot_version l.wal_replayed
          (if l.wal_replayed = 1 then "" else "s")
          (if l.wal_torn then " [torn tail discarded]" else "")
          l.version
          (Foc.Session.cached_artifacts l.session)
          load_s;
        let mismatches = ref 0 in
        List.iter
          (fun (src, phi) ->
            let got = Foc.Session.check l.session phi in
            let want =
              Foc.Engine.check
                (Foc.Engine.create ~config ())
                (Foc.Session.structure l.session)
                phi
            in
            if got = want then Printf.printf "%b  %s\n" got src
            else begin
              incr mismatches;
              Printf.printf "MISMATCH loaded=%b fresh=%b  %s\n" got want src
            end)
          (parse_sentences queries);
        if !mismatches > 0 then begin
          Printf.eprintf "error: %d answer mismatch(es) against a fresh \
                          engine\n"
            !mismatches;
          exit 5
        end
  in
  Cmd.v
    (Cmd.info "load"
       ~doc:
         "Verify-restore a session from a store directory: report the \
          snapshot version, WAL records replayed and load time, then \
          check each $(b,--query) answer against a fresh engine on the \
          restored structure (exit 5 on any mismatch).")
    Term.(
      const run $ engine_arg $ ball_cache_arg $ budget_arg
      $ snapshot_queries_arg $ log_level_arg $ store_dir_arg)

let snapshot_cmd =
  Cmd.group
    (Cmd.info "snapshot"
       ~doc:
         "Manage the persistent prepared-structure store: $(b,save) a \
          prewarmed session, $(b,info) on a store directory, \
          verify-$(b,load) a snapshot (+WAL).")
    [ snapshot_save_cmd; snapshot_info_cmd; snapshot_load_cmd ]

(* ---------------- batch ---------------- *)

let batch_cmd =
  let run structure engine jobs ball_cache_mb budget_mb repeat stats trace
      metrics log_level queries_file =
    setup_obs ~trace ~log_level;
    let a = load_structure structure in
    let srcs =
      (* a line is a comment when it starts with '#' not followed by '(' —
         counting sentences legitimately begin with "#(x,y)." *)
      let comment l =
        String.length l > 0
        && l.[0] = '#'
        && (String.length l = 1 || l.[1] <> '(')
      in
      In_channel.with_open_text queries_file In_channel.input_lines
      |> List.map String.trim
      |> List.filter (fun l -> l <> "" && not (comment l))
    in
    let phis =
      List.map
        (fun src ->
          try Foc.parse_formula src
          with Foc.Parser.Error (m, p) ->
            Printf.eprintf "parse error in %S at %d: %s\n" src p m;
            exit 2)
        srcs
    in
    let backend =
      match engine with
      | `Direct -> Foc.Engine.Direct
      | `Cover -> Foc.Engine.Cover
      | `Splitter -> Foc.Engine.Splitter { max_rounds = 4; small = 32 }
      | `Hanf -> Foc.Engine.Hanf
      | `Relalg | `Naive ->
          Printf.eprintf
            "error: batch runs on a session engine \
             (direct|cover|splitter|hanf)\n";
          exit 2
    in
    let jobs = if jobs <= 0 then Foc.Par.default_jobs () else jobs in
    let config =
      {
        Foc.Engine.default_config with
        backend;
        jobs;
        ball_cache_mb;
        trace_file = trace;
      }
    in
    let sess = Foc.Session.create ~budget_mb ~config a in
    let results, seconds =
      timed (fun () ->
          let r = ref [] in
          for _ = 1 to max 1 repeat do
            r := Foc.Session.run_batch sess phis
          done;
          !r)
    in
    finish_obs ~trace ~metrics (Some (Foc.Session.engine sess));
    List.iter (fun b -> Printf.printf "%b\n" b) results;
    if stats then
      Printf.printf "# stats: %s\n" (Foc.Session.stats_line sess);
    Printf.printf "# %d sentences x%d, %.6fs\n" (List.length phis)
      (max 1 repeat) seconds
  in
  let queries_file =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"QUERIES"
          ~doc:
            "File of FOC(P) sentences, one per line; blank lines and \
             comment lines ($(b,#) not followed by $(b,\\()) are skipped.")
  in
  let repeat_arg =
    Arg.(
      value & opt int 1
      & info [ "repeat" ] ~docv:"N"
          ~doc:
            "Run the whole batch $(docv) times through the same session \
             (warm-path demonstration; results are identical each round).")
  in
  Cmd.v
    (Cmd.info "batch"
       ~doc:
         "Evaluate a file of sentences in one query session, sharing \
          covers, ball caches, Hanf partitions and compiled sentences \
          across the batch.")
    Term.(
      const run $ structure_arg $ engine_arg $ jobs_arg $ ball_cache_arg
      $ budget_arg $ repeat_arg $ stats_arg $ trace_arg $ metrics_arg
      $ log_level_arg $ queries_file)

let () =
  (* a client disconnecting mid-response (or `foc ... | head`) must not
     kill the process: surface EPIPE per-descriptor instead *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ | Sys_error _ -> ());
  let info =
    Cmd.info "foc" ~version:"1.0.0"
      ~doc:
        "First-order query evaluation with cardinality conditions (Grohe & \
         Schweikardt, PODS 2018)."
  in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            check_cmd;
            count_cmd;
            batch_cmd;
            serve_cmd;
            snapshot_cmd;
            call_cmd;
            metrics_cmd;
            top_cmd;
            query_cmd;
            gen_cmd;
            gendb_cmd;
            sql_cmd;
            explain_cmd;
            trace_check_cmd;
          ]))
