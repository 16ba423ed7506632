(* stream-join: the `foc query --page` path in process. Closed loop, one
   caller: cursors from one Session per structure page through wide-head
   queries on a path, a star and a hub-skewed join. Every [write_every]
   cursors a Session.insert/delete expires the open cursors of that
   session, which reopen with ?after at the last row they returned.
   Answers are checked after the window against Engine.run_query on a
   fresh engine at the same structure version: first pages and reopened
   pages as prefixes, drained cursors in full (content and order). *)

open Util

let page = 64
let drain_every = 4
let write_every = 36
let max_open = 4

(* first-page latencies are summarised per fifth of the window *)
let segments = 5

(* Hub-skewed instance over [0, n): A(x,y) has its y column 80% on the
   hub 0, B(y,z) the same skew on y, C(x,z) a random function, S(x) a few
   sources. Joined S-A-B-C under a uniform model the hub blows up the
   prefix; statistics make the planner join C first. *)
let hub_structure rng n =
  let m = n / 2 and k = n / 4 and s = max 8 (n / 200) in
  let tail = max 1 (min 999 (n - 1)) in
  let skew_y j =
    if j < 50 || Random.State.float rng 1.0 < 0.8 then 0 else 1 + Random.State.int rng tail
  in
  let a_edges = List.init m (fun i -> [| i + 1; skew_y (50 + i) |]) in
  let b_edges = List.init k (fun j -> [| skew_y j; j |]) in
  let c_edges = List.init m (fun i -> [| i + 1; (if i < 50 then i else Random.State.int rng n) |]) in
  let sources = List.init s (fun i -> [| (if i < 50 then i + 1 else 1 + Random.State.int rng m) |]) in
  let sg = Foc.Signature.of_list [ ("S", 1); ("A", 2); ("B", 2); ("C", 2) ] in
  Foc.Structure.create sg ~order:n
    [ ("S", sources); ("A", a_edges); ("B", b_edges); ("C", c_edges) ]

let coloured rng g =
  Foc.Db_gen.colored_digraph rng ~graph:g ~orient:`Both ~p_red:0.3 ~p_blue:0.4 ~p_green:0.3

type shape = Path | Star | Hub

let shapes = [ Path; Star; Hub ]
let shape_name = function Path -> "path" | Star -> "star" | Hub -> "hub"

let build ~seed shape =
  let rng = Random.State.make [| seed; (match shape with Path -> 1 | Star -> 2 | Hub -> 3) |] in
  match shape with
  | Path -> coloured rng (Foc.Gen.path 10000)
  | Star -> coloured rng (Foc.Gen.star 200)
  | Hub -> hub_structure rng 5000

(* the query pool: conjunctive bodies (walk producer), negation,
   disjunction and counting heads (table producer through planned
   Relalg), and the hub join whose plan depends on statistics *)
let pool =
  [|
    (Path, [ "x"; "y"; "z" ], [], "E(x,y) & E(y,z)");
    (Path, [ "x"; "y"; "z" ], [], "E(x,y) & E(y,z) & R(z)");
    (Path, [ "x"; "y" ], [], "E(x,y) & !R(y)");
    (Path, [ "x"; "y" ], [], "E(x,y) & (R(y) | B(y))");
    (Path, [ "x"; "y" ], [ "#(z). E(y,z)" ], "E(x,y) & B(x)");
    (Star, [ "x"; "y"; "z" ], [], "E(x,y) & E(x,z)");
    (Star, [ "x"; "y"; "z" ], [], "E(x,y) & E(x,z) & !G(z)");
    (Hub, [ "x"; "y"; "z" ], [], "S(x) & A(x,y) & C(x,z) & B(y,z)");
    (Hub, [ "x"; "y"; "z" ], [], "S(x) & A(x,y) & C(x,z) & B(y,z) & !S(z)");
  |]

let queries =
  lazy
    (Array.map
       (fun (shape, head, terms, body) ->
         ( shape,
           Foc.Query.make ~head_vars:head ~head_terms:(List.map Foc.parse_term terms)
             (Foc.parse_formula body) ))
       pool)

let config = { Foc.Engine.default_config with jobs = 1 }

let setup_once ~seed =
  List.map
    (fun shape ->
      let a = build ~seed shape in
      let s = Foc.Session.create ~config a in
      (* Gaifman graph and statistics only: cursors use neither covers
         nor Hanf partitions *)
      Foc.Session.prewarm ~radii:[] s;
      (shape, s))
    shapes

let setup_repeats = 9

let digest sessions =
  let b = Buffer.create 4096 in
  List.iter
    (fun (shape, s) ->
      let a = Foc.Session.structure s in
      Printf.bprintf b "%s %d\n" (shape_name shape) (Foc.Structure.order a);
      List.iter
        (fun (r, _) ->
          Foc.Tuple.Set.iter
            (fun t -> Array.iter (fun v -> Printf.bprintf b "%d," v) t; Buffer.add_char b ';')
            (Foc.Structure.rel a r))
        (Foc.Signature.to_list (Foc.Structure.signature a)))
    sessions;
  Digest.to_hex (Digest.string (Buffer.contents b))

type open_cursor = {
  qi : int;
  mutable cur : Foc.Enum.cursor;
  mutable last : int array option;  (** last head tuple returned *)
}

type samples = {
  mutable first_page_ms : float list;  (** open -> first page, reopens included *)
  mutable ttfr_ms : float list;
  mutable open_ms : (string * float) list;  (** producer, Session.enumerate time *)
  mutable next_ns : float list;  (** per next() call on drained cursors *)
  mutable drained_rows : int;
  mutable drained_s : float;
  mutable write_ms : float list;
  mutable reopens : int;
  mutable attempted : int;
  mutable failed : int;
}

(* What a cursor returned, checked after the window: query, session
   version, the row it resumed after, at most how many rows (a page, or
   all for a drain) and a digest of the rows. *)
type seen = { s_qi : int; s_version : int; s_after : int array option; s_limit : int; s_rows : string }

let rows_digest rows = Digest.string (Marshal.to_string rows [ Marshal.No_sharing ])

(* A write as applied: the version it made, insert or delete, relation,
   tuple. *)
type write = { w_version : int; w_insert : bool; w_rel : string; w_tup : int array }

(* Replays each shape's writes on a freshly generated copy of its
   structure and compares every recorded cursor output with
   Engine.run_query at the version it was read on. Returns the
   mismatches. Runs after the window, so its memory stays out of the
   measured peak. *)
let verify ~seed queries (seen : seen list) (writes : (shape * write) list) =
  List.fold_left
    (fun failures shape ->
      let here = List.filter (fun r -> fst queries.(r.s_qi) = shape) seen in
      let ws =
        List.sort (fun a b -> compare a.w_version b.w_version)
          (List.filter_map (fun (sh, w) -> if sh = shape then Some w else None) writes)
      in
      let check_version v a =
        let at_v = List.filter (fun r -> r.s_version = v) here in
        let refs = Hashtbl.create 8 in
        let reference qi =
          match Hashtbl.find_opt refs qi with
          | Some r -> r
          | None ->
              let e = Foc.Engine.create ~config () in
              let r = Array.of_list (Foc.Engine.run_query e a (snd queries.(qi))) in
              Hashtbl.replace refs qi r;
              r
        in
        List.fold_left
          (fun bad r ->
            let all = reference r.s_qi in
            let start =
              match r.s_after with
              | None -> 0
              | Some a ->
                  let i = ref 0 in
                  while !i < Array.length all && compare (fst all.(!i)) a <= 0 do incr i done;
                  !i
            in
            let want = Array.to_list (Array.sub all start (min r.s_limit (Array.length all - start))) in
            if rows_digest want = r.s_rows then bad else bad + 1)
          0 at_v
      in
      let a0 = build ~seed shape in
      let bad0 = check_version 0 a0 in
      let _, bad =
        List.fold_left
          (fun (a, bad) w ->
            let a =
              if w.w_insert then Foc.Structure.add_tuples a w.w_rel [ w.w_tup ]
              else Foc.Structure.remove_tuples a w.w_rel [ w.w_tup ]
            in
            (a, bad + check_version w.w_version a))
          (a0, bad0) ws
      in
      let versions = List.sort_uniq compare (0 :: List.map (fun w -> w.w_version) ws) in
      let orphans = List.filter (fun r -> not (List.mem r.s_version versions)) here in
      failures + bad + List.length orphans)
    0 shapes

let run ~seed ~seconds ~traced =
  (* set-up timed [setup_repeats] times, one set of sessions alive at a
     time: each timed set-up is dropped before the next, the last kept *)
  let timed_setup () =
    Gc.compact ();
    let t0 = now () in
    let s = Spans.time "serve.session_setup" (fun () -> setup_once ~seed) in
    (s, now () -. t0)
  in
  let times = List.init (setup_repeats - 1) (fun _ -> snd (timed_setup ())) in
  let sessions, dt = timed_setup () in
  let setup_s = median (Array.of_list (dt :: times)) in
  let digest = digest sessions in
  let queries = Lazy.force queries in
  let session_of qi = List.assoc (fst queries.(qi)) sessions in
  let rng = Random.State.make [| seed; 77 |] in
  let seen = ref [] and writes = ref [] in
  let sm =
    { first_page_ms = []; ttfr_ms = []; open_ms = []; next_ns = []; drained_rows = 0;
      drained_s = 0.; write_ms = []; reopens = 0; attempted = 0; failed = 0 }
  in
  let check ok = sm.attempted <- sm.attempted + 1; if not ok then sm.failed <- sm.failed + 1 in
  let record qi version after limit rows =
    seen := { s_qi = qi; s_version = version; s_after = after; s_limit = limit; s_rows = rows_digest rows } :: !seen
  in
  if traced then Foc.Eval_obs.reset ();
  (* open (or reopen after [after]) and read one page *)
  let open_page qi after =
    let s = session_of qi in
    let version = Foc.Session.version s in
    let t0 = now () in
    let cur = Spans.time "serve.enumerate" (fun () -> Foc.Session.enumerate s ?after (snd queries.(qi))) in
    let t_open = now () in
    let rows = ref [] in
    let rec read k =
      if k < page then
        match cur.Foc.Enum.next () with
        | None -> ()
        | Some row ->
            if !rows = [] then sm.ttfr_ms <- ((now () -. t0) *. 1e3) :: sm.ttfr_ms;
            rows := row :: !rows;
            read (k + 1)
    in
    Spans.time "eval.first_page" (fun () -> read 0);
    let t1 = now () in
    sm.first_page_ms <- ((t1 -. t0) *. 1e3) :: sm.first_page_ms;
    sm.open_ms <- (cur.Foc.Enum.producer, (t_open -. t0) *. 1e3) :: sm.open_ms;
    let rows = List.rev !rows in
    record qi version after page rows;
    let last = match List.rev rows with (t, _) :: _ -> Some t | [] -> after in
    ({ qi; cur; last }, version, List.length rows = page)
  in
  let drain oc version =
    let rows = ref [] in
    let t0 = now () in
    let rec go () =
      let a = Foc.Obs.Clock.now_ns () in
      match oc.cur.Foc.Enum.next () with
      | None -> ()
      | Some row ->
          if traced then sm.next_ns <- float_of_int (Foc.Obs.Clock.now_ns () - a) :: sm.next_ns;
          rows := row :: !rows;
          go ()
    in
    Spans.time "eval.drain" go;
    let dt = now () -. t0 in
    oc.cur.Foc.Enum.close ();
    let rows = List.rev !rows in
    sm.drained_rows <- sm.drained_rows + List.length rows;
    sm.drained_s <- sm.drained_s +. dt;
    record oc.qi version oc.last max_int rows
  in
  let open_cursors = ref [] in
  let write_once () =
    let shape = List.nth shapes (Random.State.int rng 3) in
    let s = List.assoc shape sessions in
    let a = Foc.Session.structure s in
    let n = Foc.Structure.order a in
    let rel, tup =
      match shape with
      | Path -> ("E", [| Random.State.int rng n; Random.State.int rng n |])
      | Star -> ("R", [| Random.State.int rng n |])
      | Hub -> ("A", [| 1 + Random.State.int rng (n - 1); Random.State.int rng 1000 |])
    in
    let present = Foc.Structure.mem a rel tup in
    let t0 = now () in
    Spans.time "serve.write" (fun () ->
        if present then Foc.Session.delete s rel tup else Foc.Session.insert s rel tup);
    sm.write_ms <- ((now () -. t0) *. 1e3) :: sm.write_ms;
    check (Foc.Structure.mem (Foc.Session.structure s) rel tup = not present);
    writes :=
      (shape, { w_version = Foc.Session.version s; w_insert = not present; w_rel = rel; w_tup = tup })
      :: !writes;
    (* cursors of the written session must expire; they reopen after their
       last row and read one more page *)
    let expired, kept = List.partition (fun oc -> fst queries.(oc.qi) = shape) !open_cursors in
    open_cursors := kept;
    List.iter
      (fun oc ->
        match oc.cur.Foc.Enum.next () with
        | _ -> check false
        | exception Foc.Session.Expired ->
            sm.reopens <- sm.reopens + 1;
            let oc', _, _ = open_page oc.qi oc.last in
            oc'.cur.Foc.Enum.close ())
      expired
  in
  (* the peak covers the window only, not the set-ups before it *)
  reset_peak_rss ();
  let deadline = now () +. seconds in
  let i = ref 0 in
  while now () < deadline || !i < 2 * write_every do
    (* round robin: every query gets the same share of cursors, so the
       latency mix does not depend on the seed *)
    let qi = !i mod Array.length queries in
    let oc, version, more = open_page qi None in
    if more && !i mod drain_every = 0 then drain oc version
    else if more then begin
      open_cursors := oc :: !open_cursors;
      if List.length !open_cursors > max_open then begin
        match List.rev !open_cursors with
        | oldest :: rest ->
            oldest.cur.Foc.Enum.close ();
            open_cursors := List.rev rest
        | [] -> ()
      end
    end
    else oc.cur.Foc.Enum.close ();
    incr i;
    if !i mod write_every = 0 then write_once ()
  done;
  List.iter (fun oc -> oc.cur.Foc.Enum.close ()) !open_cursors;
  let rss = peak_rss_mb None in
  let seen = !seen in
  let mismatches = Spans.time "verify" (fun () -> verify ~seed queries seen !writes) in
  sm.attempted <- sm.attempted + List.length seen;
  sm.failed <- sm.failed + mismatches;
  let arr l = sorted_copy (Array.of_list l) in
  let rd = reads ~segments (Array.of_list (List.rev sm.first_page_ms)) in
  let metrics =
    if not traced then
      [ m "setup_s" "s" setup_s;
        m "peak_rss_mb" "MiB" rss;
        m "read_p50_ms" "ms" rd.p50;
        m "read_tail_ms" "ms" rd.tail_v ]
    else
      let open_by p =
        quantile (arr (List.filter_map (fun (p', t) -> if p = p' then Some t else None) sm.open_ms)) 0.5
      in
      let nx = arr sm.next_ns in
      let stats_collect_s =
        let a = Foc.Session.structure (List.assoc Hub sessions) in
        let t0 = now () in
        ignore (Spans.time "stats.collect" (fun () -> Foc.Stats.collect a));
        now () -. t0
      in
      [ m "setup_s" "s" setup_s;
        m "ttfr_ms" "ms" (quantile (arr sm.ttfr_ms) 0.5);
        m "drain_rows_per_s" "rows/s" (float_of_int sm.drained_rows /. sm.drained_s);
        m "write_p50_ms" "ms" (quantile (arr sm.write_ms) 0.5);
        m "read_samples" "count" (float_of_int rd.per_segment);
        m "read_tail_pct" "%" rd.tail_pct;
        m "eval.open_ms.walk" "ms" (open_by "walk");
        m "eval.open_ms.table" "ms" (open_by "table");
        m "eval.next_ns.p50" "ns" (quantile nx 0.5);
        m "eval.next_ns.p99" "ns" (quantile nx 0.99);
        m "eval.join_build_rows" "count" (float_of_int (Foc.Eval_obs.join_build_rows ()));
        m "eval.join_probe_rows" "count" (float_of_int (Foc.Eval_obs.join_probe_rows ()));
        m "eval.complements" "count" (float_of_int (Foc.Eval_obs.complements ()));
        m "eval.expired_reopens" "count" (float_of_int sm.reopens);
        m "stats.collect_s" "s" stats_collect_s;
        m "stats.replans" "count" (float_of_int (Foc.Eval_obs.replans ()));
        m "stats.est_err_max" "x" (float_of_int (Foc.Eval_obs.err_max_x100 ()) /. 100.);
        m "serve.insert_us.p50" "us" (quantile (arr sm.write_ms) 0.5 *. 1e3);
        m "error_rate" "1" (float_of_int sm.failed /. float_of_int (max 1 sm.attempted)) ]
  in
  { attempted = sm.attempted; failed = sm.failed; digest; metrics }
