(* serve-rw: what a client of `foc serve` sees. Open loop at a fixed
   offered rate: one generator thread pipelines seeded Poisson arrivals
   over two connections to a `foc serve --store DIR` child started from a
   snapshot written before timing, and times every request from its
   scheduled send time. The mix: 60% check and 15% count drawn Zipf from a
   pool of templated sentences and terms, 15% one-chunk streaming queries,
   5% edge and 5% colour inserts/deletes. The artifact budget is below
   what the mix keeps cached, so the session cache evicts.

   Every read is replayed offline against a fresh engine at the version
   it was served on. After the window the daemon is killed with SIGKILL
   and restarted from the store: its version must equal the acked writes
   and sampled answers must match fresh engines. *)

open Util
module P = Foc.Server_protocol

let order = 2000
(* 20 req/s gives about 540 reads in a 30 s window: five segments of
   about 108, whose tail is p90. Most reads rebuild an artifact (about
   10 ms), so the daemon stays mostly idle and a latency is mostly its
   own service time, not time queued behind others. *)
let rate = 20.
let segments = 5
(* about 100 requests before the window, so the popular sentences are
   compiled and the window starts from a cache in its steady state *)
let warmup_s = 5.

(* The pool's unbounded artifact footprint is 14.65 MB (Session.cache_bytes
   after every sentence and term), but under this mix writes invalidate
   artifacts faster than they pile up: at 7 MiB nothing is evicted and at
   3 MiB little is. At 2 MiB the cache evicts even within a 10 s window. *)
let budget_mb = 2
let checkpoint_every = 16
let setup_repeats = 9
let latency_limit_ms = 100.
let ladder = [ 1.; 1.5; 2.; 3.; 4.; 6. ]
let rung_s = 4.

let colours = [ "R"; "B"; "G" ]

(* the sentence pool: nested counting conditions over colours and
   thresholds, each distinct so each compiles to its own artifacts *)
let sentences =
  lazy
    (Array.of_list
       (List.concat_map
          (fun c1 ->
            List.concat_map
              (fun k ->
                [ Printf.sprintf "exists x. (#(y). (E(x,y) & %s(y))) >= %d" c1 k;
                  Printf.sprintf "forall x. (#(y). (E(x,y) & %s(y))) <= %d" c1 k ]
                @ List.concat_map
                    (fun c2 ->
                      [ Printf.sprintf "exists x. (%s(x) & (#(y). (E(x,y) & %s(y))) >= %d)" c1 c2 k;
                        Printf.sprintf "#(x,y). (E(x,y) & %s(x) & %s(y)) >= %d" c1 c2 (100 * k);
                        Printf.sprintf "forall x. (%s(x) -> (#(y). (E(x,y) & %s(y))) <= %d)" c1 c2 k;
                        Printf.sprintf "#(x). (%s(x) & (#(y). (E(x,y) & %s(y))) >= %d) >= %d" c1 c2 k
                          (20 * k) ])
                    colours)
              [ 1; 2; 3; 4; 5; 6 ])
          colours))

let terms =
  lazy
    (Array.of_list
       (List.concat_map
          (fun c1 ->
            List.concat_map
              (fun c2 ->
                [ Printf.sprintf "#(x,y). (E(x,y) & %s(x) & %s(y))" c1 c2;
                  Printf.sprintf "#(x). (%s(x) & (#(y). (E(x,y) & %s(y))) >= 2)" c1 c2;
                  Printf.sprintf "#(x,y). (E(x,y) & %s(x) & !%s(y))" c1 c2 ])
              colours)
          colours))

let queries =
  lazy
    (Array.of_list
       (List.concat_map
          (fun c1 ->
            List.concat_map
              (fun c2 ->
                [ ([ "x"; "y" ], Printf.sprintf "E(x,y) & %s(x) & %s(y)" c1 c2, 32);
                  ([ "x"; "y"; "z" ], Printf.sprintf "E(x,y) & E(y,z) & %s(x) & %s(z)" c1 c2, 64) ])
              colours)
          colours))

type kind =
  | Check of int
  | Count of int
  | Query of int
  | Write of bool * string * int array  (** insert?, relation, tuple *)

let is_read = function Write _ -> false | _ -> true

type req = {
  id : int;
  sched : float;
  kind : kind;
  mutable sent : float;
  mutable finished : float;
  mutable resp : (P.resp_meta * P.response) option;
  measured : bool;
}

let request_of = function
  | Check i -> P.Check (Lazy.force sentences).(i)
  | Count i -> P.Count (Lazy.force terms).(i)
  | Query i ->
      let head, body, limit = (Lazy.force queries).(i) in
      P.Query { q_head = head; q_terms = []; q_body = body; q_limit = Some limit; q_chunk = None;
                q_after = None }
  | Write (true, r, t) -> P.Insert (r, t)
  | Write (false, r, t) -> P.Delete (r, t)

(* ---------------- inputs ---------------- *)

let structure ~seed =
  let rng = Random.State.make [| seed; order; 3 |] in
  let g = Foc.Gen.random_bounded_degree rng order 3 in
  Foc.Db_gen.colored_digraph rng ~graph:g ~orient:`Both ~p_red:0.3 ~p_blue:0.4 ~p_green:0.3

(* one schedule of requests: Poisson arrivals, the mix above *)
let schedule rng ~rate ~duration ~start ~first_id ~measured =
  let zs = zipf_sampler ~n:(Array.length (Lazy.force sentences)) ~s:1.0 in
  let zt = zipf_sampler ~n:(Array.length (Lazy.force terms)) ~s:1.0 in
  let nq = Array.length (Lazy.force queries) in
  Array.mapi
    (fun i off ->
      let u = Random.State.float rng 1. in
      let kind =
        if u < 0.60 then Check (zs rng)
        else if u < 0.75 then Count (zt rng)
        else if u < 0.90 then Query (Random.State.int rng nq)
        else if u < 0.95 then
          Write (Random.State.bool rng, "E", [| Random.State.int rng order; Random.State.int rng order |])
        else
          Write
            ( Random.State.bool rng,
              List.nth colours (Random.State.int rng 3),
              [| Random.State.int rng order |] )
      in
      { id = first_id + i; sched = start +. off; kind; sent = nan; finished = nan; resp = None;
        measured })
    (poisson_schedule rng ~rate ~duration)

(* ---------------- the daemon ---------------- *)

type daemon = { pid : int }

let spawn ~foc ~dir ~sock =
  (* one worker domain: the daemon and the generator then fit the two
     cores of the reference box without one preempting the other *)
  let log = Filename.concat dir "daemon.log" in
  let fd = Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ] 0o644 in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  let args =
    [| foc; "serve"; "-s"; Filename.concat dir "structure.foc"; "--socket"; sock; "--store";
       Filename.concat dir "store"; "--checkpoint-every"; string_of_int checkpoint_every;
       "--budget-mb"; string_of_int budget_mb; "--jobs"; "1" |]
  in
  let pid = Unix.create_process foc args null fd fd in
  Unix.close fd;
  Unix.close null;
  { pid }

module C = Foc.Server_client

(* Client.connect, retried until the daemon listens or [deadline] passes *)
let rec connect_retry sock deadline =
  match C.connect (Foc.Server.Unix_sock sock) with
  | c -> c
  | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED | Unix.EAGAIN), _, _) ->
      if now () > deadline then failwith "foc serve never accepted a connection";
      Unix.sleepf 0.002;
      connect_retry sock deadline

let stats c = match C.rpc c P.Stats with P.Stats_r s -> s | _ -> failwith "stats refused"

(* spawn -> first answered check; the caller checks the daemon started
   from the snapshot *)
let start ~foc ~dir ~sock =
  (try Sys.remove sock with Sys_error _ -> ());
  let t0 = now () in
  let d = spawn ~foc ~dir ~sock in
  let c = connect_retry sock (t0 +. 60.) in
  let first = C.rpc c (P.Check (Lazy.force sentences).(0)) in
  let setup = now () -. t0 in
  let st = stats c in
  (d, c, setup, (match first with P.Bool _ -> true | _ -> false), st)

let stop d c =
  (try ignore (C.rpc c P.Shutdown) with _ -> ());
  C.close c;
  ignore (Unix.waitpid [] d.pid)

let kill d =
  (try Unix.kill d.pid Sys.sigkill with Unix.Unix_error _ -> ());
  try ignore (Unix.waitpid [] d.pid) with Unix.Unix_error _ -> ()

(* ---------------- the open-loop generator ---------------- *)

type conn = { cfd : Unix.file_descr; mutable partial : string }

(* a raw connection for the pipelined generator, which selects over the
   descriptors itself (the daemon is already listening) *)
let raw_connect sock =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX sock);
  { cfd = fd; partial = "" }

(* Send every request at its scheduled time (by id over the connections)
   and collect responses until all are in, or 30 s past the last
   scheduled send. Returns (time, outstanding) samples taken at each
   send. *)
let drive ~timing conns (reqs : req array) =
  let by_id = Hashtbl.create (Array.length reqs) in
  Array.iter (fun r -> Hashtbl.replace by_id r.id r) reqs;
  let nconn = Array.length conns in
  let next = ref 0 and outstanding = ref 0 and samples = ref [] in
  let b = Bytes.create 65536 in
  let on_line line =
    match P.parse_response line with
    | Ok (meta, resp) -> (
        match Option.bind meta.P.mid (Hashtbl.find_opt by_id) with
        | Some r when r.resp = None ->
            r.finished <- now ();
            r.resp <- Some (meta, resp);
            decr outstanding
        | _ -> ())
    | Error _ -> ()
  in
  let read_conn c =
    match Unix.read c.cfd b 0 (Bytes.length b) with
    | 0 -> failwith "foc serve closed a connection"
    | k ->
        let rec go = function
          | [ last ] -> c.partial <- last
          | line :: rest ->
              on_line line;
              go rest
          | [] -> c.partial <- ""
        in
        go (String.split_on_char '\n' (c.partial ^ Bytes.sub_string b 0 k))
  in
  let total = Array.length reqs in
  let give_up = (if total = 0 then now () else reqs.(total - 1).sched) +. 30. in
  while (!next < total || !outstanding > 0) && now () < give_up do
    let t = now () in
    while !next < total && reqs.(!next).sched <= t do
      let r = reqs.(!next) in
      let c = conns.(r.id mod nconn) in
      let line = P.request_line ~id:r.id ~timing (request_of r.kind) ^ "\n" in
      r.sent <- now ();
      ignore (Unix.write_substring c.cfd line 0 (String.length line));
      incr next;
      incr outstanding;
      samples := (r.sent, !outstanding) :: !samples
    done;
    (* poll without sleeping: a generator that sleeps between sends must be
       woken for every send and every response, and on a shared host that
       wake-up can take longer than the request itself *)
    match Unix.select (Array.to_list (Array.map (fun c -> c.cfd) conns)) [] [] 0. with
    | ready, _, _ -> Array.iter (fun c -> if List.mem c.cfd ready then read_conn c) conns
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  done;
  List.rev !samples

(* ---------------- verification ---------------- *)

let fresh_engine () = Foc.Engine.create ~config:{ Foc.Engine.default_config with jobs = 1 } ()

(* the structure after every acked write, indexed by version; false when
   the acked versions are not exactly 1..#writes *)
let replay base writes =
  let sorted = List.sort compare writes in
  let dense = List.for_all2 (fun (v, _) i -> v = i + 1) sorted (List.init (List.length sorted) Fun.id) in
  let structs = Array.make (List.length sorted + 1) base in
  List.iteri
    (fun i (_, (ins, rel, tup)) ->
      structs.(i + 1) <-
        (if ins then Foc.Structure.add_tuples structs.(i) rel [ tup ]
         else Foc.Structure.remove_tuples structs.(i) rel [ tup ]))
    sorted;
  (structs, dense)

type expected = E_bool of bool | E_int of int | E_rows of (int array * int array) list

let expected_answer e a = function
  | Check i -> E_bool (Foc.Engine.check e a (Foc.parse_formula (Lazy.force sentences).(i)))
  | Count i -> E_int (Foc.Engine.eval_ground e a (Foc.parse_term (Lazy.force terms).(i)))
  | Query i ->
      let head, body, limit = (Lazy.force queries).(i) in
      let q = Foc.Query.make ~head_vars:head ~head_terms:[] (Foc.parse_formula body) in
      E_rows (List.filteri (fun j _ -> j < limit) (Foc.Engine.run_query e a q))
  | Write _ -> invalid_arg "expected_answer"

let key_of = function Check i -> (0, i) | Count i -> (1, i) | Query i -> (2, i) | Write _ -> (3, 0)

(* every read answered at a version that exists, equal to a fresh
   engine's answer there; every write acked. Returns the failures. Reads
   come in schedule order, so their versions mostly rise: one engine per
   version in turn shares that version's artifacts across its reads. *)
let verify structs (reqs : req list) =
  let cache = Hashtbl.create 1024 in
  let engine = ref (-1, fresh_engine ()) in
  let engine_at v =
    if fst !engine <> v then engine := (v, fresh_engine ());
    snd !engine
  in
  let want kind v =
    let k = (key_of kind, v) in
    match Hashtbl.find_opt cache k with
    | Some e -> e
    | None ->
        let e = expected_answer (engine_at v) structs.(v) kind in
        Hashtbl.replace cache k e;
        e
  in
  let ok_at v got kind = v >= 0 && v < Array.length structs && want kind v = got in
  List.fold_left
    (fun failed r ->
      let ok =
        match (r.kind, r.resp) with
        | _, None -> false
        | Write _, Some (_, P.Done _) -> true
        | Check _, Some (_, P.Bool (b, v)) -> ok_at v (E_bool b) r.kind
        | Count _, Some (_, P.Int (x, v)) -> ok_at v (E_int x) r.kind
        | Query _, Some (_, P.Rows_r rows) ->
            (not rows.P.more) && ok_at rows.P.rversion (E_rows rows.P.rrows) r.kind
        | _ -> false
      in
      if ok then failed else failed + 1)
    0 reqs

(* ---------------- files ---------------- *)

let file_size path = try (Unix.stat path).Unix.st_size with Unix.Unix_error _ -> 0

(* newest file of the store with this prefix (names embed the version) *)
let newest prefix dir =
  Sys.readdir dir |> Array.to_list
  |> List.filter (fun f -> String.starts_with ~prefix f)
  |> List.sort compare |> List.rev
  |> function
  | [] -> None
  | f :: _ -> Some f

let version_of name = Scanf.sscanf name "%_[a-z]-%d" Fun.id

let rec rm_rf path =
  match (Unix.lstat path).Unix.st_kind with
  | Unix.S_DIR ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error _ -> ()

let rec mkdir_p path =
  if not (Sys.file_exists path) then begin
    mkdir_p (Filename.dirname path);
    Sys.mkdir path 0o755
  end

(* a counter from the stats op's session logfmt line *)
let logfmt_int line key =
  String.split_on_char ' ' line
  |> List.find_map (fun kv ->
         match String.index_opt kv '=' with
         | Some i when String.sub kv 0 i = key ->
             int_of_string_opt (String.sub kv (i + 1) (String.length kv - i - 1))
         | _ -> None)
  |> Option.value ~default:0

(* ---------------- the run ---------------- *)

let run ~foc ~seed ~seconds ~traced =
  if not (Sys.file_exists foc) then failwith ("no foc binary at " ^ foc);
  let dir = Printf.sprintf ".focbench/serve-%d" (Unix.getpid ()) in
  let store_dir = Filename.concat dir "store" in
  rm_rf dir;
  mkdir_p store_dir;
  let sock = Filename.concat dir "sock" in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  (* inputs, and the snapshot the daemon starts from, before timing *)
  let a = structure ~seed in
  Foc.Structure_io.save (Filename.concat dir "structure.foc") a;
  let digest = Digest.to_hex (Digest.string (Foc.Structure_io.to_string a)) in
  let s0 = Foc.Session.create ~config:{ Foc.Engine.default_config with jobs = 1 } a in
  Foc.Session.prewarm s0;
  ignore (Foc.Session.save s0 ~dir:store_dir ~version:0);
  let failed = ref 0 and attempted = ref 0 in
  let check ok =
    incr attempted;
    if not ok then incr failed
  in
  let from_snapshot (st : P.stats) = String.starts_with ~prefix:"snapshot" st.P.source in
  (* set-up: spawn -> first answered check, several times *)
  let setups = ref [] in
  for _ = 1 to setup_repeats - 1 do
    let d, fd, t, ok, st = start ~foc ~dir ~sock in
    check (ok && from_snapshot st);
    setups := t :: !setups;
    stop d fd
  done;
  let d, c0, t, ok, st0 = start ~foc ~dir ~sock in
  check (ok && from_snapshot st0);
  setups := t :: !setups;
  let setup_s = median (Array.of_list !setups) in
  let daemon = ref d in
  Fun.protect ~finally:(fun () -> kill !daemon) @@ fun () ->
  let conns = Array.init 2 (fun _ -> raw_connect sock) in
  let rng = Random.State.make [| seed; 4242 |] in
  let next_id = ref 1 in
  let phase ~rate ~duration ~measured =
    let reqs = schedule rng ~rate ~duration ~start:(now () +. 0.01) ~first_id:!next_id ~measured in
    next_id := !next_id + Array.length reqs;
    let samples = Spans.time "server.window" (fun () -> drive ~timing:traced conns reqs) in
    (reqs, samples)
  in
  let before = stats c0 in
  let warm, _ = phase ~rate ~duration:warmup_s ~measured:false in
  let window, _ = phase ~rate ~duration:seconds ~measured:true in
  let after = stats c0 in
  let rungs =
    if not traced then []
    else
      List.map
        (fun mult ->
          let reqs, samples = phase ~rate:(rate *. mult) ~duration:rung_s ~measured:false in
          (mult, reqs, samples))
        ladder
  in
  let rss = peak_rss_mb (Some !daemon.pid) in
  let all =
    Array.to_list warm @ Array.to_list window @ List.concat_map (fun (_, r, _) -> Array.to_list r) rungs
  in
  let acked_writes =
    List.filter_map
      (fun r ->
        match (r.kind, r.resp) with
        | Write (ins, rel, tup), Some (_, P.Done v) -> Some (v, (ins, rel, tup))
        | _ -> None)
      all
  in
  let store_facts =
    match (newest "wal-" store_dir, newest "snap-" store_dir) with
    | Some w, Some s ->
        let since = List.length acked_writes - version_of w in
        [ m "store.wal_bytes_per_write" "B"
            (if since > 0 then float_of_int (file_size (Filename.concat store_dir w)) /. float_of_int since
             else 0.);
          m "store.snapshot_bytes_per_user_byte" "1"
            (float_of_int (file_size (Filename.concat store_dir s))
            /. float_of_int (file_size (Filename.concat dir "structure.foc")));
          m "store.checkpoints" "count" (float_of_int (version_of s / checkpoint_every)) ]
    | _ -> []
  in
  (* durability: SIGKILL, restart from the store, compare *)
  Array.iter (fun c -> Unix.close c.cfd) conns;
  C.close c0;
  kill !daemon;
  let d2, c2, _, ok2, st2 = start ~foc ~dir ~sock in
  daemon := d2;
  check (ok2 && from_snapshot st2);
  check (st2.P.version = List.length acked_writes);
  let structs, dense = replay a acked_writes in
  check dense;
  let final = structs.(Array.length structs - 1) in
  let nsent = Array.length (Lazy.force sentences) in
  for i = 0 to 19 do
    let qi = ((i * 7919) + seed) mod nsent in
    match C.rpc c2 (P.Check (Lazy.force sentences).(qi)) with
    | P.Bool (b, v) -> check (v = st2.P.version && E_bool b = expected_answer (fresh_engine ()) final (Check qi))
    | _ -> check false
  done;
  stop d2 c2;
  (* replay every read at its version *)
  let failures = Spans.time "verify" (fun () -> verify structs all) in
  attempted := !attempted + List.length all;
  failed := !failed + failures;
  let measured = List.filter (fun r -> r.measured) all in
  let answered_reads = List.filter (fun r -> is_read r.kind && r.resp <> None) measured in
  let lat_ms r = latency ~scheduled:r.sched ~completed:r.finished *. 1e3 in
  (* [all] is in schedule order, so segments are stretches of the window *)
  let rd = reads ~segments (Array.of_list (List.map lat_ms answered_reads)) in
  let metrics =
    if not traced then
      [ m "setup_s" "s" setup_s;
        m "peak_rss_mb" "MiB" rss;
        m "read_p50_ms" "ms" rd.p50;
        m "read_tail_ms" "ms" rd.tail_v ]
    else begin
      let timed =
        List.filter_map
          (fun r -> match r.resp with Some ({ P.rtiming = Some t; _ }, _) -> Some (r, t) | _ -> None)
          measured
      in
      let sorted_of f l = sorted_copy (Array.of_list (List.map f l)) in
      let qs f l p = quantile (sorted_of f l) p in
      let ms ns = float_of_int ns /. 1e6 in
      let phases (t : P.timing) =
        t.queue_ns + t.batch_wait_ns + t.artifact_ns + t.plan_ns + t.eval_ns + t.write_ns
      in
      (* reconciliation: the phases fit in the server's total, which fits
         in the client's own wall time for the request *)
      let violations =
        List.length
          (List.filter
             (fun (r, (t : P.timing)) ->
               phases t > t.total_ns || float_of_int t.total_ns /. 1e9 > r.finished -. r.sent)
             timed)
      in
      failed := !failed + violations;
      attempted := !attempted + List.length timed;
      let sum f = List.fold_left (fun acc (_, t) -> acc + f t) 0 timed in
      let reads_t = List.filter (fun (r, _) -> is_read r.kind) timed in
      let writes_t = List.filter (fun (r, _) -> not (is_read r.kind)) timed in
      let sdelta key = logfmt_int after.P.session key - logfmt_int before.P.session key in
      let ratio h mi =
        let h = sdelta h and mi = sdelta mi in
        if h + mi = 0 then 0. else float_of_int h /. float_of_int (h + mi)
      in
      let rung_pass (mult, reqs, samples) =
        let reqs = Array.to_list reqs in
        let lat = sorted_of lat_ms (List.filter (fun r -> is_read r.kind && r.resp <> None) reqs) in
        let answered = List.for_all (fun r -> r.resp <> None) reqs in
        let t = match tail lat with Some (_, v) -> v | None -> infinity in
        (rate *. mult, answered && t <= latency_limit_ms && not (backlog_grows samples))
      in
      let late = sorted_of (fun r -> lateness ~scheduled:r.sched ~sent:r.sent *. 1e3) measured in
      [ m "setup_s" "s" setup_s;
        m "read_samples" "count" (float_of_int rd.per_segment);
        m "read_tail_pct" "%" rd.tail_pct;
        m "write_p50_ms" "ms"
          (quantile (sorted_of lat_ms (List.filter (fun r -> not (is_read r.kind)) measured)) 0.5);
        m "max_rate_rps" "req/s" (Option.value ~default:0. (ladder_pick (List.map rung_pass rungs)));
        m "server.queue_ms.p50" "ms" (qs (fun (_, t) -> ms t.P.queue_ns) timed 0.5);
        m "server.queue_ms.p99" "ms" (qs (fun (_, t) -> ms t.P.queue_ns) timed 0.99);
        m "server.batch_wait_ms.p50" "ms" (qs (fun (_, t) -> ms t.P.batch_wait_ns) timed 0.5);
        m "server.wire_ms.p50" "ms"
          (qs (fun (r, t) -> ((r.finished -. r.sent) *. 1e3) -. ms t.P.total_ns) timed 0.5);
        m "server.unattributed_frac" "1"
          (float_of_int (sum (fun t -> t.P.total_ns - phases t))
          /. float_of_int (max 1 (sum (fun t -> t.P.total_ns))));
        m "server.reconcile_violations" "count" (float_of_int violations);
        m "server.shed" "count" (float_of_int (after.P.shed - before.P.shed));
        m "server.rejected" "count" (float_of_int (after.P.rejected - before.P.rejected));
        m "serve.artifact_ms.p50" "ms" (qs (fun (_, t) -> ms t.P.artifact_ns) reads_t 0.5);
        m "serve.artifact_ms.p99" "ms" (qs (fun (_, t) -> ms t.P.artifact_ns) reads_t 0.99);
        m "nd.eval_ms.p50" "ms" (qs (fun (_, t) -> ms t.P.eval_ns) reads_t 0.5);
        m "nd.eval_ms.p99" "ms" (qs (fun (_, t) -> ms t.P.eval_ns) reads_t 0.99);
        m "logic.plan_ms.p50" "ms" (qs (fun (_, t) -> ms t.P.plan_ns) reads_t 0.5);
        m "serve.write_ms.p50" "ms" (qs (fun (_, t) -> ms t.P.write_ns) writes_t 0.5);
        m "serve.compiled_hit_ratio" "1" (ratio "session.compiled_hits" "session.compiled_misses");
        m "serve.ctx_hit_ratio" "1" (ratio "session.ctx_hits" "session.ctx_misses");
        m "serve.cover_hit_ratio" "1" (ratio "session.cover_hits" "session.cover_misses");
        m "serve.evictions" "count" (float_of_int (sdelta "session.evictions"));
        m "serve.invalidated" "count" (float_of_int (sdelta "session.invalidated"));
        m "serve.balls_dropped" "count" (float_of_int (sdelta "session.balls_dropped"));
        m "store.load_ms" "ms" (float_of_int st0.P.load_ms);
        m "gen.late_ms.p99" "ms" (quantile late 0.99);
        m "error_rate" "1" (float_of_int !failed /. float_of_int (max 1 !attempted)) ]
      @ store_facts
    end
  in
  { attempted = !attempted; failed = !failed; digest; metrics }
