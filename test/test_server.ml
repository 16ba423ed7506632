(* Tests for the query-server daemon (lib/server): protocol round-trips,
   malformed-input resilience, concurrent clients under mixed read/write
   load (every answer verified against a fresh sequential engine on the
   exact structure version the server reports), admission control, a
   client killed mid-stream, and graceful shutdown. *)

module P = Foc.Server_protocol

let coloured seed g =
  let rng = Random.State.make [| seed |] in
  Foc.Db_gen.colored_digraph rng ~graph:g ~orient:`Both ~p_red:0.3
    ~p_blue:0.4 ~p_green:0.3

let structure n seed =
  let rng = Random.State.make [| n; seed |] in
  coloured seed (Foc.Gen.random_bounded_degree rng n 3)

let fresh_check a phi =
  let config =
    { Foc.Engine.default_config with backend = Foc.Engine.Direct; jobs = 1 }
  in
  Foc.Engine.check (Foc.Engine.create ~config ()) a (Foc.parse_formula phi)

let sock_counter = ref 0

let with_server ?(jobs = 2) ?(max_queue = 256) ?(client_budget = 0)
    ?(slow_ms = 0.) ?slow_log ?(max_cursors = 8) ?(n = 24) ?(seed = 7) f =
  incr sock_counter;
  let path =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "foc_test_%d_%d.sock" (Unix.getpid ()) !sock_counter)
  in
  let a = structure n seed in
  let cfg =
    {
      (Foc.Server.default_config (Foc.Server.Unix_sock path)) with
      Foc.Server.engine =
        { Foc.Engine.default_config with
          backend = Foc.Engine.Direct;
          jobs = 1 };
      jobs;
      max_queue;
      client_budget;
      slow_ms;
      slow_log;
      max_cursors;
    }
  in
  let srv = Foc.Server.start cfg a in
  Fun.protect ~finally:(fun () -> Foc.Server.stop srv) (fun () -> f srv a)

let connect srv = Foc.Server_client.connect (Foc.Server.address srv)

(* ---------------- protocol round-trip (pure) ---------------- *)

let test_protocol_roundtrip () =
  let reqs =
    [
      P.Ping;
      P.Check "exists x. #(y). E(x,y) >= 2";
      P.Count "#(x,y). E(x,y)";
      P.Insert ("E", [| 3; 4 |]);
      P.Delete ("R", [| 5 |]);
      P.Explain "exists x. #(y). E(x,y) >= 2";
      P.Query
        {
          P.q_head = [ "x"; "y" ];
          q_terms = [ "#(z). E(y,z)" ];
          q_body = "E(x,y)";
          q_limit = Some 100;
          q_chunk = Some 32;
          q_after = Some [| 3; 7 |];
        };
      P.Query
        {
          P.q_head = [ "x" ];
          q_terms = [];
          q_body = "R(x)";
          q_limit = None;
          q_chunk = None;
          q_after = None;
        };
      P.Fetch { f_cursor = 5; f_chunk = Some 64 };
      P.Fetch { f_cursor = 9; f_chunk = None };
      P.Close_cursor 5;
      P.Stats;
      P.Metrics;
      P.Shutdown;
    ]
  in
  List.iteri
    (fun i req ->
      let timing = i mod 2 = 0 in
      let line = P.request_line ~id:i ~timing req in
      match P.parse_request line with
      | Ok ({ P.rid = Some id; timing = timing' }, req') ->
          Alcotest.(check int) "id round-trips" i id;
          Alcotest.(check bool) "timing flag round-trips" timing timing';
          Alcotest.(check string)
            (Printf.sprintf "request %d round-trips" i)
            line
            (P.request_line ~id ~timing:timing' req')
      | Ok ({ P.rid = None; _ }, _) -> Alcotest.fail "id lost"
      | Error e -> Alcotest.fail e)
    reqs;
  let resps =
    [
      P.Bool (true, 3);
      P.Int (42, 0);
      P.Done 7;
      P.Pong;
      P.Bye;
      P.Rows_r
        {
          P.rrows = [ ([| 0; 1 |], [| 2 |]); ([| 0; 3 |], [||]) ];
          more = true;
          cursor = Some 3;
          rversion = 5;
          producer = "walk";
        };
      P.Rows_r
        {
          P.rrows = [];
          more = false;
          cursor = None;
          rversion = 0;
          producer = "table";
        };
      P.Closed;
      P.Stats_r
        {
          P.version = 1;
          connections = 2;
          served = 3;
          shed = 4;
          rejected = 5;
          disconnects = 6;
          p50_us = 120;
          p95_us = 4500;
          p99_us = 9000;
          cursors = 2;
          trace_dropped = 17;
          session = "a=1 b=\"two words\"";
          planner = "planner.replans=1";
          source = "snapshot+wal n=2";
          load_ms = 12;
        };
      P.Explain_r
        {
          P.result = true;
          version = 9;
          cached = false;
          replans = 2;
          plans =
            [
              { P.order = [ 0; 2; 1 ]; steps = [ (12, 9); (40, 37) ];
                replanned = true };
              { P.order = []; steps = []; replanned = false };
            ];
        };
      P.Metrics_r "# TYPE foc_req_check_ns histogram\nfoc_req_check_ns_count 3\n";
      P.Error "bad \"quoted\" thing\nsecond line";
    ]
  in
  let some_timing =
    { P.queue_ns = 10; batch_wait_ns = 2; artifact_ns = 300; plan_ns = 4;
      eval_ns = 5000; write_ns = 0; total_ns = 5400 }
  in
  List.iteri
    (fun i resp ->
      let timing = if i mod 2 = 0 then Some some_timing else None in
      let line = P.response_line ~id:i ?timing resp in
      match P.parse_response line with
      | Ok ({ P.mid = Some id; rtiming }, resp') ->
          Alcotest.(check bool)
            "timing presence round-trips" (timing <> None) (rtiming <> None);
          (match (timing, rtiming) with
          | Some want, Some got ->
              Alcotest.(check int) "total_ns" want.P.total_ns got.P.total_ns;
              Alcotest.(check int) "eval_ns" want.P.eval_ns got.P.eval_ns
          | _ -> ());
          Alcotest.(check string)
            (Printf.sprintf "response %d round-trips" i)
            line
            (P.response_line ~id ?timing:rtiming resp')
      | Ok ({ P.mid = None; _ }, _) -> Alcotest.fail "id lost"
      | Error e -> Alcotest.fail e)
    resps;
  List.iter
    (fun bad ->
      match P.parse_request bad with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail ("accepted malformed request: " ^ bad))
    [
      "";
      "not json";
      "{\"op\":\"frobnicate\"}";
      "{\"query\":\"no op\"}";
      "{\"op\":\"check\"}";
      "{\"op\":\"explain\"}";
      "{\"op\":\"insert\",\"rel\":\"E\"}";
      "{\"op\":\"insert\",\"rel\":\"E\",\"tuple\":[1,\"x\"]}";
      "{\"op\":\"query\",\"body\":\"E(x,y)\"}";
      "{\"op\":\"query\",\"head\":[\"x\",3],\"body\":\"E(x,y)\"}";
      "{\"op\":\"query\",\"head\":[\"x\"]}";
      "{\"op\":\"fetch\"}";
      "{\"op\":\"close_cursor\"}";
    ]

(* A stats response from a server that predates the quantile fields must
   still parse (tolerance mirrors the "planner" field's introduction). *)
let test_stats_parse_tolerance () =
  let old =
    "{\"ok\":true,\"stats\":{\"version\":3,\"connections\":1,\"served\":9,"
    ^ "\"shed\":0,\"rejected\":0,\"disconnects\":0,\"session\":\"x=1\"}}"
  in
  match P.parse_response old with
  | Ok (_, P.Stats_r s) ->
      Alcotest.(check int) "version" 3 s.P.version;
      Alcotest.(check int) "p50 defaults" 0 s.P.p50_us;
      Alcotest.(check int) "p99 defaults" 0 s.P.p99_us;
      Alcotest.(check int) "trace_dropped defaults" 0 s.P.trace_dropped;
      Alcotest.(check int) "cursors defaults" 0 s.P.cursors;
      Alcotest.(check string) "planner defaults" "" s.P.planner
  | Ok (_, r) -> Alcotest.fail ("expected stats, got " ^ P.response_line r)
  | Error e -> Alcotest.fail e

(* ---------------- basic serving ---------------- *)

let test_basic_ops () =
  with_server (fun srv a ->
      let c = connect srv in
      Alcotest.(check bool) "ping" true (Foc.Server_client.rpc c P.Ping = P.Pong);
      let q = "exists x. #(y). E(x,y) >= 2" in
      (match Foc.Server_client.rpc ~id:5 c (P.Check q) with
      | P.Bool (b, v) ->
          Alcotest.(check bool) "check agrees" (fresh_check a q) b;
          Alcotest.(check int) "pre-write version" 0 v
      | r -> Alcotest.fail (P.response_line r));
      (match Foc.Server_client.rpc c (P.Count "#(x,y). E(x,y)") with
      | P.Int (count, 0) ->
          let expected =
            Foc.Engine.eval_ground
              (Foc.Engine.create ())
              a
              (Foc.parse_term "#(x,y). E(x,y)")
          in
          Alcotest.(check int) "count agrees" expected count
      | r -> Alcotest.fail (P.response_line r));
      (match Foc.Server_client.rpc c (P.Insert ("E", [| 0; 1 |])) with
      | P.Done 1 -> ()
      | r -> Alcotest.fail (P.response_line r));
      let b = Foc.Structure.add_tuples a "E" [ [| 0; 1 |] ] in
      (match Foc.Server_client.rpc c (P.Check q) with
      | P.Bool (got, 1) ->
          Alcotest.(check bool) "post-write check agrees" (fresh_check b q) got
      | r -> Alcotest.fail (P.response_line r));
      (match Foc.Server_client.rpc c (P.Delete ("E", [| 0; 1 |])) with
      | P.Done 2 -> ()
      | r -> Alcotest.fail (P.response_line r));
      (match Foc.Server_client.rpc c P.Stats with
      | P.Stats_r s ->
          Alcotest.(check int) "stats version" 2 s.P.version;
          Alcotest.(check bool) "served some" true (s.P.served >= 4);
          Alcotest.(check bool)
            "session line present" true
            (String.length s.P.session > 0)
      | r -> Alcotest.fail (P.response_line r));
      Foc.Server_client.close c)

(* ---------------- malformed input never kills a connection ------------ *)

let test_malformed_survives () =
  with_server (fun srv _ ->
      let c = connect srv in
      let expect_error raw =
        Foc.Server_client.send_raw c raw;
        match P.parse_response (Foc.Server_client.recv_raw c) with
        | Ok (_, P.Error _) -> ()
        | Ok (_, r) ->
            Alcotest.fail ("expected an error, got " ^ P.response_line r)
        | Error e -> Alcotest.fail e
      in
      expect_error "this is not json";
      expect_error "{\"op\":\"frobnicate\"}";
      expect_error "{\"op\":\"check\",\"query\":\"exists x. ((((\"}";
      expect_error "{\"op\":\"insert\",\"rel\":\"NoSuchRel\",\"tuple\":[1]}";
      expect_error "{\"op\":\"insert\",\"rel\":\"E\",\"tuple\":[1]}";
      Alcotest.(check bool)
        "connection still alive" true
        (Foc.Server_client.rpc c P.Ping = P.Pong);
      (match Foc.Server_client.rpc c (P.Check "exists x. #(y). E(x,y) >= 1") with
      | P.Bool _ -> ()
      | r -> Alcotest.fail (P.response_line r));
      Foc.Server_client.close c)

(* Hostile lines: nesting past the JSON depth limit is a quick parse error
   on a live connection, and a line past the length bound is answered with
   an error before its connection closes. The daemon keeps serving. *)
let test_hostile_lines () =
  with_server (fun srv _ ->
      let expect_error c what =
        match P.parse_response (Foc.Server_client.recv_raw c) with
        | Ok (_, P.Error e) -> e
        | Ok (_, r) ->
            Alcotest.fail
              (what ^ ": expected an error, got " ^ P.response_line r)
        | Error e -> Alcotest.fail e
      in
      let c = connect srv in
      let t0 = Unix.gettimeofday () in
      Foc.Server_client.send_raw c (String.make 1_000_000 '[');
      ignore (expect_error c "deep nesting");
      let dt = Unix.gettimeofday () -. t0 in
      Alcotest.(check bool)
        (Printf.sprintf "nesting rejected quickly (%.3fs)" dt)
        true (dt < 1.);
      Alcotest.(check bool)
        "connection still answers ping" true
        (Foc.Server_client.rpc c P.Ping = P.Pong);
      Foc.Server_client.close c;
      let c = connect srv in
      Foc.Server_client.send_raw c (String.make ((1 lsl 20) + 1) '[');
      let e = expect_error c "over-long line" in
      Alcotest.(check bool)
        ("names the bound: " ^ e) true
        (String.starts_with ~prefix:"request line longer than" e);
      Foc.Server_client.close c;
      let c = connect srv in
      Alcotest.(check bool)
        "daemon still answers ping" true
        (Foc.Server_client.rpc c P.Ping = P.Pong);
      Foc.Server_client.close c)

(* ---------------- request-scoped observability ---------------- *)

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

(* a conjunctive counting sentence too wide for the decomposition kernels
   (5 counted variables > max_width): the engine falls back to the
   relational-algebra baseline, so plan_and runs and Eval_obs records a
   join order with per-step predicted/actual rows *)
let planned_q =
  "#(v,w,x,y,z). (E(v,w) & E(w,x) & E(x,y) & E(y,z)) >= 1"

let test_timing_breakdown () =
  with_server (fun srv _ ->
      let c = connect srv in
      (match Foc.Server_client.rpc_full ~timing:true c (P.Check planned_q) with
      | meta, P.Bool _ -> (
          match meta.P.rtiming with
          | None -> Alcotest.fail "timing requested but absent"
          | Some tm ->
              let phases =
                [ tm.P.queue_ns; tm.P.batch_wait_ns; tm.P.artifact_ns;
                  tm.P.plan_ns; tm.P.eval_ns; tm.P.write_ns ]
              in
              List.iter
                (fun ns ->
                  Alcotest.(check bool) "phase nonnegative" true (ns >= 0))
                phases;
              let sum = List.fold_left ( + ) 0 phases in
              Alcotest.(check bool) "phases sum within total" true
                (sum <= tm.P.total_ns);
              Alcotest.(check bool) "eval time observed" true (tm.P.eval_ns > 0))
      | _, r -> Alcotest.fail (P.response_line r));
      (* not requested -> not attached *)
      (match Foc.Server_client.rpc_full c (P.Check planned_q) with
      | meta, P.Bool _ ->
          Alcotest.(check bool) "no unsolicited timing" true
            (meta.P.rtiming = None)
      | _, r -> Alcotest.fail (P.response_line r));
      (* a write lands in write_ns *)
      (match
         Foc.Server_client.rpc_full ~timing:true c (P.Insert ("E", [| 0; 1 |]))
       with
      | meta, P.Done _ -> (
          match meta.P.rtiming with
          | Some tm ->
              Alcotest.(check bool) "write time observed" true
                (tm.P.write_ns > 0)
          | None -> Alcotest.fail "timing absent on write")
      | _, r -> Alcotest.fail (P.response_line r));
      (* stats now exposes read-latency quantiles *)
      (match Foc.Server_client.rpc c P.Stats with
      | P.Stats_r s ->
          Alcotest.(check bool) "quantiles ordered" true
            (0 <= s.P.p50_us && s.P.p50_us <= s.P.p95_us
            && s.P.p95_us <= s.P.p99_us)
      | r -> Alcotest.fail (P.response_line r));
      Foc.Server_client.close c)

let test_explain_roundtrip () =
  with_server (fun srv a ->
      let c = connect srv in
      (* evaluate the reference answer BEFORE capturing the plan sequence:
         the fresh engine feeds the same process-wide Eval_obs registry *)
      let want = fresh_check a planned_q in
      let seq0 = Foc.Eval_obs.plan_seq () in
      (match Foc.Server_client.rpc c (P.Explain planned_q) with
      | P.Explain_r e ->
          Alcotest.(check bool) "explain agrees with a fresh engine" want
            e.P.result;
          Alcotest.(check bool) "first sight is a compile miss" false
            e.P.cached;
          Alcotest.(check bool) "at least one plan reported" true
            (e.P.plans <> []);
          (* the wire plans mirror exactly what Eval_obs recorded (same
             process: the server dispatcher feeds the same registry) *)
          let recorded = Foc.Eval_obs.plans_since seq0 in
          Alcotest.(check int) "plan count matches" (List.length recorded)
            (List.length e.P.plans);
          List.iter2
            (fun (pr : Foc.Eval_obs.plan_record) (pi : P.plan_info) ->
              Alcotest.(check (list int)) "join order matches" pr.order
                pi.P.order;
              Alcotest.(check int) "step count matches"
                (List.length pr.steps)
                (List.length pi.P.steps);
              List.iter2
                (fun (_, actual) (_, actual') ->
                  Alcotest.(check int) "actual rows match" actual actual')
                pr.steps pi.P.steps;
              Alcotest.(check bool) "order covers its steps" true
                (List.length pi.P.order = List.length pi.P.steps + 1
                || pi.P.order = []))
            recorded e.P.plans
      | r -> Alcotest.fail (P.response_line r));
      (* same sentence again: answered through the compiled cache *)
      (match Foc.Server_client.rpc c (P.Explain planned_q) with
      | P.Explain_r e ->
          Alcotest.(check bool) "second sight hits the cache" true e.P.cached
      | r -> Alcotest.fail (P.response_line r));
      Foc.Server_client.close c)

let test_slow_log () =
  let path = Filename.temp_file "foc_slow" ".log" in
  (* threshold of 1ns: every request is slow *)
  with_server ~slow_ms:1e-6 ~slow_log:path (fun srv _ ->
      let c = connect srv in
      (match Foc.Server_client.rpc c (P.Check planned_q) with
      | P.Bool _ -> ()
      | r -> Alcotest.fail (P.response_line r));
      Foc.Server_client.close c);
  (* server stopped: the sink is closed and flushed *)
  let ic = open_in path in
  let lines = ref [] in
  (try
     while true do
       lines := input_line ic :: !lines
     done
   with End_of_file -> ());
  close_in ic;
  Sys.remove path;
  let slow_lines = List.filter (fun l -> contains l "msg=slow_query") !lines in
  Alcotest.(check bool) "a slow line was logged" true (slow_lines <> []);
  let l = List.hd slow_lines in
  List.iter
    (fun needle ->
      Alcotest.(check bool) ("slow line has " ^ needle) true (contains l needle))
    [ "op=check"; "total_ms="; "queue_ms="; "eval_ms="; "query=" ]

let test_metrics_op () =
  with_server (fun srv _ ->
      let c = connect srv in
      (match Foc.Server_client.rpc c (P.Check planned_q) with
      | P.Bool _ -> ()
      | r -> Alcotest.fail (P.response_line r));
      (match Foc.Server_client.rpc c P.Metrics with
      | P.Metrics_r text ->
          List.iter
            (fun needle ->
              Alcotest.(check bool)
                ("metrics page has " ^ needle)
                true (contains text needle))
            [ "# TYPE foc_req_check_ns histogram";
              "foc_req_check_ns_count 1";
              "foc_req_read_ns_sum";
              "le=\"+Inf\"";
              "foc_session_compiled_misses";
              "foc_planner_est_rows" ]
      | r -> Alcotest.fail (P.response_line r));
      Foc.Server_client.close c)

let test_client_timeout () =
  (* a socket that listens but never accepts or answers *)
  incr sock_counter;
  let path =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "foc_dead_%d_%d.sock" (Unix.getpid ()) !sock_counter)
  in
  let fd = Unix.socket PF_UNIX SOCK_STREAM 0 in
  Unix.bind fd (ADDR_UNIX path);
  Unix.listen fd 1;
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      let t0 = Unix.gettimeofday () in
      let c =
        Foc.Server_client.connect ~timeout:0.25 (Foc.Server.Unix_sock path)
      in
      (match Foc.Server_client.rpc c P.Ping with
      | _ -> Alcotest.fail "expected a timeout"
      | exception Foc.Server_client.Timeout -> ());
      Alcotest.(check bool) "timed out promptly" true
        (Unix.gettimeofday () -. t0 < 5.);
      Foc.Server_client.close c)

(* ---------------- concurrent clients, mixed read/write ---------------- *)

(* One writer + [readers] reader threads hammer the server concurrently.
   Every response names the structure version it was evaluated on, and the
   single writer's write log reconstructs each version, so after the join
   every recorded answer is verified against a fresh sequential engine —
   the bit-identical-under-concurrency gate. *)
let test_concurrent_agree () =
  let readers = 8 and reads_per_client = 12 in
  let queries =
    [|
      "exists x. #(y). E(x,y) >= 2";
      "exists x. prime(#(y). (E(x,y) | E(y,x)))";
      "#(x,y). (E(x,y) & B(y)) >= 3";
      "forall x. #(y). E(y,x) <= 3";
      "exists x. (#(y). (E(x,y) & R(y))) >= 1";
      "#(x). prime(#(y). E(x,y)) >= 2";
    |]
  in
  with_server ~n:30 ~seed:11 (fun srv a ->
      let writes =
        [ (true, [| 1; 2 |]); (true, [| 3; 4 |]); (false, [| 1; 2 |]);
          (true, [| 5; 6 |]); (false, [| 3; 4 |]); (true, [| 7; 8 |]) ]
      in
      let write_log = ref [] in
      let writer () =
        let c = connect srv in
        List.iter
          (fun (ins, tup) ->
            let req =
              if ins then P.Insert ("E", tup) else P.Delete ("E", tup)
            in
            match Foc.Server_client.rpc c req with
            | P.Done v -> write_log := (v, ins, tup) :: !write_log
            | r -> Alcotest.fail ("write failed: " ^ P.response_line r))
          writes;
        Foc.Server_client.close c
      in
      let reader_results =
        Array.init readers (fun _ -> ref ([] : (int * int * bool) list))
      in
      let reader k () =
        let c = connect srv in
        let out = reader_results.(k) in
        for i = 0 to reads_per_client - 1 do
          let qi = (k + (3 * i)) mod Array.length queries in
          match Foc.Server_client.rpc c (P.Check queries.(qi)) with
          | P.Bool (b, v) -> out := (qi, v, b) :: !out
          | r -> Alcotest.fail ("read failed: " ^ P.response_line r)
        done;
        Foc.Server_client.close c
      in
      let threads =
        Thread.create writer ()
        :: List.init readers (fun k -> Thread.create (reader k) ())
      in
      List.iter Thread.join threads;
      (* exceptions in client threads don't propagate through join: assert
         every thread completed its full schedule *)
      Array.iteri
        (fun k out ->
          Alcotest.(check int)
            (Printf.sprintf "reader %d completed" k)
            reads_per_client (List.length !out))
        reader_results;
      (* replay the write log into one structure per version *)
      let log = List.sort compare !write_log in
      Alcotest.(check int) "all writes applied" (List.length writes)
        (List.length log);
      let structures = Array.make (List.length log + 1) a in
      List.iteri
        (fun i (v, ins, tup) ->
          Alcotest.(check int) "single writer => dense versions" (i + 1) v;
          structures.(i + 1) <-
            (if ins then Foc.Structure.add_tuples structures.(i) "E" [ tup ]
             else Foc.Structure.remove_tuples structures.(i) "E" [ tup ]))
        log;
      (* verify every recorded answer on the exact version it was read at *)
      let expected = Hashtbl.create 64 in
      Array.iter
        (fun out ->
          List.iter
            (fun (qi, v, got) ->
              let key = (qi, v) in
              let want =
                match Hashtbl.find_opt expected key with
                | Some w -> w
                | None ->
                    let w = fresh_check structures.(v) queries.(qi) in
                    Hashtbl.add expected key w;
                    w
              in
              Alcotest.(check bool)
                (Printf.sprintf "q%d at version %d" qi v)
                want got)
            !out)
        reader_results;
      Alcotest.(check int) "every reader answered" readers
        (Array.length reader_results))

(* ---------------- admission control ---------------- *)

let test_admission_shed () =
  (* a zero-length queue sheds every queued op; ping is answered inline *)
  with_server ~max_queue:0 (fun srv _ ->
      let c = connect srv in
      Alcotest.(check bool) "ping bypasses the queue" true
        (Foc.Server_client.rpc c P.Ping = P.Pong);
      (match Foc.Server_client.rpc c (P.Check "exists x. #(y). E(x,y) >= 1") with
      | P.Error m ->
          Alcotest.(check bool)
            ("overload error mentions overload: " ^ m)
            true
            (String.length m >= 10 && String.sub m 0 10 = "overloaded")
      | r -> Alcotest.fail (P.response_line r));
      Foc.Server_client.close c)

let test_admission_budget () =
  with_server ~client_budget:2 (fun srv _ ->
      let q = "exists x. #(y). E(x,y) >= 1" in
      let c = connect srv in
      (match Foc.Server_client.rpc c (P.Check q) with
      | P.Bool _ -> ()
      | r -> Alcotest.fail (P.response_line r));
      (match Foc.Server_client.rpc c (P.Check q) with
      | P.Bool _ -> ()
      | r -> Alcotest.fail (P.response_line r));
      (match Foc.Server_client.rpc c (P.Check q) with
      | P.Error _ -> ()
      | r -> Alcotest.fail ("expected budget rejection: " ^ P.response_line r));
      Alcotest.(check bool) "ping still free" true
        (Foc.Server_client.rpc c P.Ping = P.Pong);
      Foc.Server_client.close c;
      (* a fresh connection gets a fresh budget *)
      let c2 = connect srv in
      (match Foc.Server_client.rpc c2 (P.Check q) with
      | P.Bool _ -> ()
      | r -> Alcotest.fail ("fresh connection: " ^ P.response_line r));
      Foc.Server_client.close c2)

(* ---------------- streaming queries ---------------- *)

let mk_query ?limit ?chunk ?after ?(terms = []) head body =
  P.Query
    {
      P.q_head = head;
      q_terms = terms;
      q_body = body;
      q_limit = limit;
      q_chunk = chunk;
      q_after = after;
    }

(* the reference the streamed answers must be bit-identical to *)
let materialised a ?(terms = []) head body =
  let q =
    Foc.Query.make ~head_vars:head
      ~head_terms:(List.map Foc.parse_term terms)
      (Foc.parse_formula body)
  in
  Foc.Relalg.query Foc.predicates a q

let row_pair =
  Alcotest.pair (Alcotest.array Alcotest.int) (Alcotest.array Alcotest.int)

let open_cursors srv c =
  match Foc.Server_client.rpc c P.Stats with
  | P.Stats_r s -> s.P.cursors
  | r ->
      ignore srv;
      Alcotest.fail (P.response_line r)

let test_streaming_query () =
  with_server (fun srv a ->
      let c = connect srv in
      let head = [ "x"; "y" ] and body = "E(x,y)" in
      let terms = [ "#(z). E(y,z)" ] in
      let want = materialised a ~terms head body in
      Alcotest.(check bool) "workload is non-trivial" true
        (List.length want > 8);
      (* chunk of 3 forces several fetch round-trips *)
      let got = ref [] in
      (match
         Foc.Server_client.query_iter c
           { P.q_head = head; q_terms = terms; q_body = body;
             q_limit = None; q_chunk = Some 3; q_after = None }
           (fun row -> got := row :: !got)
       with
      | Ok producer ->
          Alcotest.(check bool) "producer named" true (producer <> "")
      | Error e -> Alcotest.fail e);
      Alcotest.(check (list row_pair))
        "streamed = materialised (content and order)" want
        (List.rev !got);
      Alcotest.(check int) "drained cursor closed server-side" 0
        (open_cursors srv c);
      (* limit caps the stream; after resumes exactly behind a row *)
      (match Foc.Server_client.rpc c (mk_query ~limit:4 ~chunk:2 head body) with
      | P.Rows_r r ->
          Alcotest.(check int) "limit chunk" 2 (List.length r.P.rrows);
          (match r.P.cursor with
          | Some id -> (
              match Foc.Server_client.rpc c (P.Close_cursor id) with
              | P.Closed -> ()
              | r -> Alcotest.fail (P.response_line r))
          | None -> ())
      | r -> Alcotest.fail (P.response_line r));
      let split = List.length want / 2 in
      let after = fst (List.nth want (split - 1)) in
      let tail = ref [] in
      (match
         Foc.Server_client.query_iter c
           { P.q_head = head; q_terms = terms; q_body = body;
             q_limit = None; q_chunk = Some 5; q_after = Some after }
           (fun row -> tail := row :: !tail)
       with
      | Ok _ -> ()
      | Error e -> Alcotest.fail e);
      Alcotest.(check (list row_pair))
        "after resumes mid-stream"
        (List.filteri (fun i _ -> i >= split) (materialised a ~terms head body))
        (List.rev !tail);
      (* explicit close releases the cursor *)
      (match Foc.Server_client.rpc c (mk_query ~chunk:1 head body) with
      | P.Rows_r { P.cursor = Some id; more = true; _ } -> (
          Alcotest.(check int) "open until closed" 1 (open_cursors srv c);
          match Foc.Server_client.rpc c (P.Close_cursor id) with
          | P.Closed ->
              Alcotest.(check int) "closed" 0 (open_cursors srv c);
              (match Foc.Server_client.rpc c (P.Close_cursor id) with
              | P.Error _ -> ()
              | r -> Alcotest.fail ("double close: " ^ P.response_line r))
          | r -> Alcotest.fail (P.response_line r))
      | r -> Alcotest.fail (P.response_line r));
      Foc.Server_client.close c)

(* a write expires every open cursor: the next fetch errors instead of
   serving rows from the superseded snapshot *)
let test_cursor_expires_on_write () =
  with_server (fun srv _ ->
      let c = connect srv in
      (match Foc.Server_client.rpc c (mk_query ~chunk:2 [ "x"; "y" ] "E(x,y)") with
      | P.Rows_r { P.cursor = Some id; more = true; rversion; _ } -> (
          Alcotest.(check int) "pinned to pre-write version" 0 rversion;
          (match Foc.Server_client.rpc c (P.Insert ("E", [| 0; 1 |])) with
          | P.Done 1 -> ()
          | r -> Alcotest.fail (P.response_line r));
          (match
             Foc.Server_client.rpc c (P.Fetch { f_cursor = id; f_chunk = None })
           with
          | P.Error m ->
              Alcotest.(check bool)
                ("expiry error says so: " ^ m)
                true
                (String.length m >= 14
                && String.sub m 0 14 = "cursor expired")
          | r -> Alcotest.fail ("expected expiry: " ^ P.response_line r));
          Alcotest.(check int) "expired cursor reaped" 0 (open_cursors srv c))
      | r -> Alcotest.fail (P.response_line r));
      Foc.Server_client.close c)

let test_cursor_budget_and_ownership () =
  with_server ~max_cursors:1 (fun srv _ ->
      let c = connect srv in
      (match Foc.Server_client.rpc c (mk_query ~chunk:1 [ "x"; "y" ] "E(x,y)") with
      | P.Rows_r { P.cursor = Some id; _ } -> (
          (* budget: a second open on the same connection is refused *)
          (match Foc.Server_client.rpc c (mk_query ~chunk:1 [ "x" ] "R(x) | B(x) | G(x)") with
          | P.Error m ->
              Alcotest.(check bool)
                ("budget error says so: " ^ m)
                true
                (String.length m >= 13
                && String.sub m 0 13 = "cursor budget")
          | r -> Alcotest.fail ("expected budget error: " ^ P.response_line r));
          (* ownership: another connection can neither fetch nor close it *)
          let c2 = connect srv in
          (match
             Foc.Server_client.rpc c2 (P.Fetch { f_cursor = id; f_chunk = None })
           with
          | P.Error "unknown cursor" -> ()
          | r -> Alcotest.fail ("foreign fetch: " ^ P.response_line r));
          (match Foc.Server_client.rpc c2 (P.Close_cursor id) with
          | P.Error "unknown cursor" -> ()
          | r -> Alcotest.fail ("foreign close: " ^ P.response_line r));
          Foc.Server_client.close c2;
          (* closing frees the budget *)
          (match Foc.Server_client.rpc c (P.Close_cursor id) with
          | P.Closed -> ()
          | r -> Alcotest.fail (P.response_line r));
          match Foc.Server_client.rpc c (mk_query ~chunk:1 [ "x"; "y" ] "E(x,y)") with
          | P.Rows_r _ -> ()
          | r -> Alcotest.fail ("after close: " ^ P.response_line r))
      | r -> Alcotest.fail (P.response_line r));
      Foc.Server_client.close c)

(* ---------------- client killed mid-stream ---------------- *)

let test_client_killed_mid_stream () =
  (* Before the SIGPIPE fix this test killed the whole test binary: the
     server's response write to a vanished client raised the signal. *)
  with_server (fun srv _ ->
      let q = "exists x. prime(#(y). (E(x,y) | E(y,x)))" in
      for _ = 1 to 3 do
        let c = connect srv in
        (* open a streaming cursor and leave it dangling, then leave
           requests in flight and vanish without reading *)
        (match
           Foc.Server_client.rpc c (mk_query ~chunk:1 [ "x"; "y" ] "E(x,y)")
         with
        | P.Rows_r { P.cursor = Some _; more = true; _ } -> ()
        | r -> Alcotest.fail ("cursor open: " ^ P.response_line r));
        Foc.Server_client.send_raw c (P.request_line (P.Check q));
        Foc.Server_client.send_raw c (P.request_line (P.Check q));
        Foc.Server_client.close c
      done;
      Thread.yield ();
      let c = connect srv in
      Alcotest.(check bool) "server survives" true
        (Foc.Server_client.rpc c P.Ping = P.Pong);
      (match Foc.Server_client.rpc c (P.Check q) with
      | P.Bool _ -> ()
      | r -> Alcotest.fail ("next request: " ^ P.response_line r));
      (* the vanished clients' cursors were reaped, not leaked — poll
         briefly: reaping runs on each conn thread's exit path *)
      let rec settle tries =
        let open_now = open_cursors srv c in
        if open_now = 0 then 0
        else if tries = 0 then open_now
        else begin
          Thread.yield ();
          Unix.sleepf 0.01;
          settle (tries - 1)
        end
      in
      Alcotest.(check int) "no cursor leaked by dead clients" 0 (settle 100);
      Foc.Server_client.close c)

(* ---------------- graceful shutdown ---------------- *)

let test_graceful_shutdown () =
  with_server (fun srv a ->
      let q = "exists x. #(y). E(x,y) >= 2" in
      (* several clients get answers, then one asks for shutdown *)
      let answers = Array.make 4 None in
      let threads =
        List.init 4 (fun k ->
            Thread.create
              (fun () ->
                let c = connect srv in
                (match Foc.Server_client.rpc c (P.Check q) with
                | P.Bool (b, _) -> answers.(k) <- Some b
                | _ -> ());
                Foc.Server_client.close c)
              ())
      in
      List.iter Thread.join threads;
      Array.iteri
        (fun k got ->
          Alcotest.(check (option bool))
            (Printf.sprintf "client %d answered" k)
            (Some (fresh_check a q))
            got)
        answers;
      let c = connect srv in
      Alcotest.(check bool) "shutdown acknowledged" true
        (Foc.Server_client.rpc c P.Shutdown = P.Bye);
      (* post-shutdown requests are rejected or the connection closes *)
      (match Foc.Server_client.rpc c (P.Check q) with
      | P.Error _ -> ()
      | exception End_of_file -> ()
      | r -> Alcotest.fail ("expected rejection: " ^ P.response_line r));
      Foc.Server_client.close c;
      (* wait returns: the daemon drained and stopped *)
      Foc.Server.wait srv)

(* Regression: the final replies of a draining server used to race the
   stop path.  [cleanup] shut each connection socket in BOTH directions,
   and on a busy scheduler it won the race against the connection
   thread's last [send_line] — the very client that asked for shutdown
   saw EOF instead of its [bye] (likewise any in-flight answer on
   another connection).  Receive-side-only shutdown keeps the write path
   open.  The race was timing-dependent (~50% on one core), so run the
   round-trip several times. *)
let test_shutdown_reply_delivered () =
  for round = 1 to 6 do
    with_server (fun srv _ ->
        let c = connect srv in
        (match Foc.Server_client.rpc c (P.Insert ("E", [| 1; 2 |])) with
        | P.Done _ -> ()
        | r -> Alcotest.fail ("insert: " ^ P.response_line r));
        (match Foc.Server_client.rpc c P.Stats with
        | P.Stats_r _ -> ()
        | r -> Alcotest.fail ("stats: " ^ P.response_line r));
        (match Foc.Server_client.rpc c P.Shutdown with
        | P.Bye -> ()
        | r ->
            Alcotest.fail
              (Printf.sprintf "round %d: expected bye, got %s" round
                 (P.response_line r))
        | exception End_of_file ->
            Alcotest.fail
              (Printf.sprintf
                 "round %d: connection closed before the bye reply" round));
        Foc.Server_client.close c;
        Foc.Server.wait srv)
  done

let () =
  Alcotest.run "query server"
    [
      ( "protocol",
        [
          Alcotest.test_case "request/response round-trip" `Quick
            test_protocol_roundtrip;
          Alcotest.test_case "stats parse tolerance" `Quick
            test_stats_parse_tolerance;
        ] );
      ( "serving",
        [
          Alcotest.test_case "basic ops + versions" `Quick test_basic_ops;
          Alcotest.test_case "malformed input survives" `Quick
            test_malformed_survives;
          Alcotest.test_case "hostile lines rejected" `Quick
            test_hostile_lines;
          Alcotest.test_case "concurrent clients agree" `Quick
            test_concurrent_agree;
        ] );
      ( "observability",
        [
          Alcotest.test_case "timing breakdown" `Quick test_timing_breakdown;
          Alcotest.test_case "explain round-trip" `Quick
            test_explain_roundtrip;
          Alcotest.test_case "slow-query log" `Quick test_slow_log;
          Alcotest.test_case "metrics exposition" `Quick test_metrics_op;
          Alcotest.test_case "client timeout" `Quick test_client_timeout;
        ] );
      ( "admission control",
        [
          Alcotest.test_case "queue overflow sheds" `Quick test_admission_shed;
          Alcotest.test_case "per-client budget" `Quick test_admission_budget;
        ] );
      ( "streaming",
        [
          Alcotest.test_case "query/fetch/close round-trip" `Quick
            test_streaming_query;
          Alcotest.test_case "cursor expires on write" `Quick
            test_cursor_expires_on_write;
          Alcotest.test_case "cursor budget and ownership" `Quick
            test_cursor_budget_and_ownership;
        ] );
      ( "resilience",
        [
          Alcotest.test_case "client killed mid-stream" `Quick
            test_client_killed_mid_stream;
          Alcotest.test_case "graceful shutdown drains" `Quick
            test_graceful_shutdown;
          Alcotest.test_case "shutdown reply reaches the client" `Quick
            test_shutdown_reply_delivered;
        ] );
    ]
