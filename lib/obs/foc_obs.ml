(* Observability layer: monotonic clock, nestable span tracing with
   per-domain buffers, a metrics registry (counters / gauges / log-spaced
   histograms), and machine-readable exporters (Chrome trace_event JSON,
   logfmt). See the .mli for the contracts; the load-bearing ones are

   - zero cost when disabled: [span] checks one atomic and calls [f]
     directly, counters are plain int stores, and nothing here ever
     changes an evaluation result (bit-identity on vs off is a test);
   - per-domain buffers: spans recorded inside pool workers go to the
     worker's own buffer (no locks on the record path) and are merged
     deterministically when the trace is read, after the parallel joins;
     metrics keep one shard per domain the same way. *)

module Clock = struct
  let now_ns () = Int64.to_int (Monotonic_clock.now ())

  let timed f =
    let t0 = now_ns () in
    let v = f () in
    (v, float_of_int (now_ns () - t0) /. 1e9)
end

(* ------------------------------------------------------------------ *)

module Logfmt = struct
  type value = Int of int | Float of float | Str of string | Bool of bool

  let needs_quotes s =
    String.length s = 0
    || String.exists
         (fun c -> c = ' ' || c = '"' || c = '=' || c = '\n')
         s

  let escape s =
    let b = Buffer.create (String.length s + 2) in
    String.iter
      (function
        | '"' -> Buffer.add_string b "\\\""
        | '\\' -> Buffer.add_string b "\\\\"
        | '\n' -> Buffer.add_string b "\\n"
        | c -> Buffer.add_char b c)
      s;
    Buffer.contents b

  let string_of_value = function
    | Int i -> string_of_int i
    | Float f -> Printf.sprintf "%.6f" f
    | Bool b -> string_of_bool b
    | Str s -> if needs_quotes s then "\"" ^ escape s ^ "\"" else s

  let line fields =
    String.concat " "
      (List.map (fun (k, v) -> k ^ "=" ^ string_of_value v) fields)
end

(* ------------------------------------------------------------------ *)

module Log = struct
  type level = Quiet | Error | Info | Debug

  let to_int = function Quiet -> 0 | Error -> 1 | Info -> 2 | Debug -> 3
  let current = Atomic.make (to_int Error)
  let set_level l = Atomic.set current (to_int l)

  let level_of_string s =
    match String.lowercase_ascii (String.trim s) with
    | "quiet" | "off" -> Some Quiet
    | "error" -> Some Error
    | "info" -> Some Info
    | "debug" -> Some Debug
    | _ -> None

  let emit tag msg = Printf.eprintf "foc[%s] %s\n%!" tag (msg ())
  let error msg = if Atomic.get current >= 1 then emit "error" msg
  let info msg = if Atomic.get current >= 2 then emit "info" msg
  let debug msg = if Atomic.get current >= 3 then emit "debug" msg
end

(* ------------------------------------------------------------------ *)

module Metrics = struct
  (* Domain shards. Every metric keeps one cell per domain and a domain
     writes only its own cell, so recording is a plain int store with no
     atomics or locks. Readers fold over the cells (sums for counters and
     histograms, the max for gauges), so a read taken after a parallel
     join sees every worker's updates, the same way [Trace] merges its
     per-domain buffers. A domain's slot is handed out on its first
     record and never recycled: the only domains here are the caller's
     and the {!Foc_par} pool, which lives until exit. *)
  let next_slot = Atomic.make 0
  let slot_key =
    Domain.DLS.new_key (fun () -> Atomic.fetch_and_add next_slot 1)

  (* the cell array is republished through an atomic when a new domain
     grows it, so a reader on another domain sees initialised cells *)
  type 'a shards = { cells : 'a array Atomic.t; fresh : unit -> 'a }

  let grow_lock = Mutex.create ()
  let shards fresh = { cells = Atomic.make [||]; fresh }

  let local sh =
    let s = Domain.DLS.get slot_key in
    let cells = Atomic.get sh.cells in
    if s < Array.length cells then Array.unsafe_get cells s
    else begin
      Mutex.lock grow_lock;
      let cells = Atomic.get sh.cells in
      let n = Array.length cells in
      if s >= n then
        Atomic.set sh.cells
          (Array.init (s + 1) (fun i ->
               if i < n then cells.(i) else sh.fresh ()));
      Mutex.unlock grow_lock;
      (Atomic.get sh.cells).(s)
    end

  let fold f init sh = Array.fold_left f init (Atomic.get sh.cells)

  type cell = { mutable v : int }

  let cell () = { v = 0 }

  module Counter = struct
    type local = cell
    type t = cell shards

    let make () = shards cell
    let local = local
    let bump x n = x.v <- x.v + n
    let add c n = bump (local c) n
    let inc c = add c 1
    let value c = fold (fun acc x -> acc + x.v) 0 c
  end

  module Gauge = struct
    type local = cell
    type t = cell shards

    let make () = shards cell
    let local = local
    let raise_to x n = if n > x.v then x.v <- n
    let set g n = (local g).v <- n
    let set_max g n = raise_to (local g) n
    let value g = fold (fun acc x -> max acc x.v) 0 g
  end

  module Histogram = struct
    (* 64 fixed log2-spaced buckets: bucket 0 holds v <= 0, bucket i in
       1..63 holds the values of bit-length i, i.e. 2^(i-1) <= v < 2^i.
       [observe] is two array/int stores — cheap enough for per-ball and
       per-update call sites. *)
    type local = { buckets : int array; mutable count : int; mutable sum : int }
    type t = local shards

    let fresh () = { buckets = Array.make 64 0; count = 0; sum = 0 }
    let make () = shards fresh

    let bucket_of v =
      if v <= 0 then 0
      else begin
        let i = ref 0 and x = ref v in
        while !x > 0 do
          incr i;
          x := !x lsr 1
        done;
        !i
      end

    (* inclusive upper bound of bucket [i] *)
    let bucket_upper i =
      if i = 0 then 0 else if i >= 63 then max_int else (1 lsl i) - 1

    let observe h v =
      let x = local h in
      let i = bucket_of v in
      x.buckets.(i) <- x.buckets.(i) + 1;
      x.count <- x.count + 1;
      x.sum <- x.sum + v

    (* every shard summed into one fresh cell *)
    let merged h =
      fold
        (fun m x ->
          Array.iteri (fun i k -> m.buckets.(i) <- m.buckets.(i) + k) x.buckets;
          m.count <- m.count + x.count;
          m.sum <- m.sum + x.sum;
          m)
        (fresh ()) h

    let count h = fold (fun acc x -> acc + x.count) 0 h
    let sum h = fold (fun acc x -> acc + x.sum) 0 h

    let nonzero_buckets h =
      let m = merged h in
      let out = ref [] in
      for i = 63 downto 0 do
        if m.buckets.(i) > 0 then out := (bucket_upper i, m.buckets.(i)) :: !out
      done;
      !out

    (* inclusive lower bound of bucket [i], as a float for interpolation *)
    let bucket_lower i = if i = 0 then 0. else float_of_int (1 lsl (i - 1))

    (* upper bound clamped to 2^62 so the top bucket interpolates finitely *)
    let bucket_upper_f i =
      if i = 0 then 0.
      else if i >= 62 then float_of_int (1 lsl 62)
      else float_of_int ((1 lsl i) - 1)

    (* Quantile estimate by linear interpolation inside the log2 bucket
       containing the target rank. Exact semantics (unit-tested):
       [q <= 0] returns the lower bound of the first nonempty bucket,
       [q >= 1] the (clamped) upper bound of the last; a rank landing on a
       bucket edge interpolates to that edge. Empty histogram: 0. *)
    let quantile h q =
      let h = merged h in
      if h.count = 0 then 0.
      else begin
        let q = Float.max 0. (Float.min 1. q) in
        let target = q *. float_of_int h.count in
        let rec find i cum =
          if i >= 63 then (63, cum)
          else
            let c = h.buckets.(i) in
            if c > 0 && cum +. float_of_int c >= target then (i, cum)
            else find (i + 1) (cum +. float_of_int c)
        in
        (* skip to the first nonempty bucket when target = 0 *)
        let rec first i = if h.buckets.(i) > 0 || i >= 63 then i else first (i + 1) in
        let i, cum = if target <= 0. then (first 0, 0.) else find 0 0. in
        let c = float_of_int (max 1 h.buckets.(i)) in
        let frac = Float.max 0. (Float.min 1. ((target -. cum) /. c)) in
        let lo = bucket_lower i and hi = bucket_upper_f i in
        lo +. (frac *. (hi -. lo))
      end
  end

  type metric =
    | MCounter of Counter.t
    | MGauge of Gauge.t
    | MHistogram of Histogram.t

  (* the name table is shared by every domain that registers a metric;
     the lock guards it, never the record path *)
  type t = { tbl : (string, metric) Hashtbl.t; lock : Mutex.t }

  let create () = { tbl = Hashtbl.create 32; lock = Mutex.create () }

  let register kind t name make unwrap =
    Mutex.lock t.lock;
    let m =
      match Hashtbl.find_opt t.tbl name with
      | Some m -> m
      | None ->
          let m = make () in
          Hashtbl.replace t.tbl name m;
          m
    in
    Mutex.unlock t.lock;
    match unwrap m with
    | Some x -> x
    | None ->
        invalid_arg (Printf.sprintf "Metrics.%s: name in use: %s" kind name)

  let counter t name =
    register "counter" t name
      (fun () -> MCounter (Counter.make ()))
      (function MCounter c -> Some c | _ -> None)

  let gauge t name =
    register "gauge" t name
      (fun () -> MGauge (Gauge.make ()))
      (function MGauge g -> Some g | _ -> None)

  let histogram t name =
    register "histogram" t name
      (fun () -> MHistogram (Histogram.make ()))
      (function MHistogram h -> Some h | _ -> None)

  (* the registry in scope: per domain, inherited by {!Foc_par} tasks *)
  let default = create ()
  let current_key = Domain.DLS.new_key (fun () -> ref default)
  let current () = !(Domain.DLS.get current_key)

  let with_current t f =
    let r = Domain.DLS.get current_key in
    let saved = !r in
    r := t;
    Fun.protect ~finally:(fun () -> r := saved) f

  let sorted t =
    Mutex.lock t.lock;
    let l = Hashtbl.fold (fun k m acc -> (k, m) :: acc) t.tbl [] in
    Mutex.unlock t.lock;
    List.sort (fun (a, _) (b, _) -> String.compare a b) l

  (* one flat field list: counters/gauges as [name=v], histograms as
     [name.count=…] and [name.sum=…] — what the single `# stats:` line
     prints, so a newly registered metric can never drift out of it *)
  let scalar_fields t =
    List.concat_map
      (fun (name, m) ->
        match m with
        | MCounter c -> [ (name, Logfmt.Int (Counter.value c)) ]
        | MGauge g -> [ (name, Logfmt.Int (Gauge.value g)) ]
        | MHistogram h ->
            [
              (name ^ ".count", Logfmt.Int (Histogram.count h));
              (name ^ ".sum", Logfmt.Int (Histogram.sum h));
            ])
      (sorted t)

  let line t = Logfmt.line (scalar_fields t)

  (* one line per metric, histograms with their nonzero buckets *)
  let report t =
    List.map
      (fun (name, m) ->
        match m with
        | MCounter c ->
            Logfmt.line
              [ ("counter", Logfmt.Str name);
                ("value", Logfmt.Int (Counter.value c)) ]
        | MGauge g ->
            Logfmt.line
              [ ("gauge", Logfmt.Str name);
                ("value", Logfmt.Int (Gauge.value g)) ]
        | MHistogram h ->
            Logfmt.line
              (("histogram", Logfmt.Str name)
               :: ("count", Logfmt.Int (Histogram.count h))
               :: ("sum", Logfmt.Int (Histogram.sum h))
               :: List.map
                    (fun (ub, k) ->
                      ((if ub = max_int then "le_inf"
                        else Printf.sprintf "le%d" ub),
                       Logfmt.Int k))
                    (Histogram.nonzero_buckets h)))
      (sorted t)


  (* Prometheus text exposition. Metric names are sanitised ([a-zA-Z0-9_])
     and prefixed [foc_]; histograms emit cumulative [_bucket{le="..."}]
     series plus [_sum]/[_count]. Several registries can be merged into
     one page; on a name clash the first registry wins. *)
  let prom_name name =
    "foc_"
    ^ String.map
        (fun c ->
          match c with
          | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> c
          | _ -> '_')
        name

  let prometheus ts =
    let buf = Buffer.create 1024 in
    let seen = Hashtbl.create 64 in
    List.iter
      (fun t ->
        List.iter
          (fun (name, m) ->
            let pn = prom_name name in
            if not (Hashtbl.mem seen pn) then begin
              Hashtbl.replace seen pn ();
              match m with
              | MCounter c ->
                  Printf.bprintf buf "# TYPE %s counter\n%s %d\n" pn pn
                    (Counter.value c)
              | MGauge g ->
                  Printf.bprintf buf "# TYPE %s gauge\n%s %d\n" pn pn
                    (Gauge.value g)
              | MHistogram h ->
                  Printf.bprintf buf "# TYPE %s histogram\n" pn;
                  let cum = ref 0 in
                  List.iter
                    (fun (ub, k) ->
                      cum := !cum + k;
                      if ub < max_int then
                        Printf.bprintf buf "%s_bucket{le=\"%d\"} %d\n" pn ub
                          !cum)
                    (Histogram.nonzero_buckets h);
                  Printf.bprintf buf "%s_bucket{le=\"+Inf\"} %d\n" pn
                    (Histogram.count h);
                  Printf.bprintf buf "%s_sum %d\n" pn (Histogram.sum h);
                  Printf.bprintf buf "%s_count %d\n" pn (Histogram.count h)
            end)
          (sorted t))
      ts;
    Buffer.contents buf
end

(* ------------------------------------------------------------------ *)

module Trace = struct
  type event = { name : string; tid : int; depth : int; t0 : int; t1 : int }

  (* One bounded ring of events per domain. Appends happen only from the
     owning domain (no lock); the registry of buffers is the only shared
     state and is mutex-protected. Buffers live for the whole process —
     pool domains never die before exit, and a dead domain's buffer stays
     readable from the registry. Arrays grow by doubling up to the global
     cap; past the cap the ring overwrites its oldest event and counts the
     drop, so a long-lived daemon with tracing enabled holds at most
     [cap] spans per domain instead of growing forever. *)
  type buf = {
    tid : int;
    mutable names : string array;
    mutable depths : int array;
    mutable starts : int array;
    mutable stops : int array;
    mutable start : int;  (* ring head: index of the oldest event *)
    mutable len : int;
    mutable dropped : int;  (* events overwritten since the last clear *)
    mutable open_depth : int;
  }

  let registry : buf list ref = ref []
  let reg_mutex = Mutex.create ()
  let on = Atomic.make false
  let logfmt_sink : (string -> unit) option ref = ref None

  let default_cap = 262_144
  let cap_ref = Atomic.make default_cap
  let set_cap n = Atomic.set cap_ref (max 1 n)
  let cap () = Atomic.get cap_ref

  let enabled () = Atomic.get on
  let enable () = Atomic.set on true
  let disable () = Atomic.set on false
  let set_logfmt_sink s = logfmt_sink := s

  let make_buf tid =
    {
      tid;
      names = Array.make 256 "";
      depths = Array.make 256 0;
      starts = Array.make 256 0;
      stops = Array.make 256 0;
      start = 0;
      len = 0;
      dropped = 0;
      open_depth = 0;
    }

  let key =
    Domain.DLS.new_key (fun () ->
        let b = make_buf (Domain.self () :> int) in
        Mutex.lock reg_mutex;
        registry := b :: !registry;
        Mutex.unlock reg_mutex;
        b)

  let buffer () = Domain.DLS.get key

  let push b name depth t0 t1 =
    let cap = max 1 (Atomic.get cap_ref) in
    let size = Array.length b.names in
    (* a lowered cap logically drops the oldest surplus first *)
    if b.len > cap then begin
      let excess = b.len - cap in
      b.dropped <- b.dropped + excess;
      b.start <- (b.start + excess) mod size;
      b.len <- cap
    end;
    if b.len = cap then begin
      (* ring full: append at the tail, slide the window off the oldest
         (the same slot when the backing array is exactly cap-sized) *)
      let j = (b.start + b.len) mod size in
      b.names.(j) <- name;
      b.depths.(j) <- depth;
      b.starts.(j) <- t0;
      b.stops.(j) <- t1;
      b.start <- (b.start + 1) mod size;
      b.dropped <- b.dropped + 1
    end
    else begin
      (if b.len = size then begin
         (* grow (unwrapping the ring) by doubling, up to the cap *)
         let nsize = min (max (2 * size) 256) cap in
         let unwrap a fill =
           let a' = Array.make nsize fill in
           for i = 0 to b.len - 1 do
             a'.(i) <- a.((b.start + i) mod size)
           done;
           a'
         in
         b.names <- unwrap b.names "";
         b.depths <- unwrap b.depths 0;
         b.starts <- unwrap b.starts 0;
         b.stops <- unwrap b.stops 0;
         b.start <- 0
       end);
      let size = Array.length b.names in
      let j = (b.start + b.len) mod size in
      b.names.(j) <- name;
      b.depths.(j) <- depth;
      b.starts.(j) <- t0;
      b.stops.(j) <- t1;
      b.len <- b.len + 1
    end

  let clear () =
    Mutex.lock reg_mutex;
    List.iter
      (fun b ->
        b.len <- 0;
        b.start <- 0;
        b.dropped <- 0)
      !registry;
    Mutex.unlock reg_mutex

  let dropped_events () =
    Mutex.lock reg_mutex;
    let n = List.fold_left (fun acc b -> acc + b.dropped) 0 !registry in
    Mutex.unlock reg_mutex;
    n

  (* Deterministic merge: collect every buffer, then impose a total order
     that depends only on the recorded data (start asc, end desc — so an
     enclosing span sorts before its children — then tid, name, depth),
     never on registry or scheduling order. *)
  let compare_events a b =
    let c = compare a.t0 b.t0 in
    if c <> 0 then c
    else
      let c = compare b.t1 a.t1 in
      if c <> 0 then c
      else
        let c = compare a.tid b.tid in
        if c <> 0 then c
        else
          let c = String.compare a.name b.name in
          if c <> 0 then c else compare a.depth b.depth

  let events () =
    Mutex.lock reg_mutex;
    let bufs = !registry in
    let out = ref [] in
    List.iter
      (fun b ->
        let size = Array.length b.names in
        for i = b.len - 1 downto 0 do
          let j = (b.start + i) mod size in
          out :=
            {
              name = b.names.(j);
              tid = b.tid;
              depth = b.depths.(j);
              t0 = b.starts.(j);
              t1 = b.stops.(j);
            }
            :: !out
        done)
      bufs;
    Mutex.unlock reg_mutex;
    List.sort compare_events !out

  let json_escape s =
    let b = Buffer.create (String.length s) in
    String.iter
      (function
        | '"' -> Buffer.add_string b "\\\""
        | '\\' -> Buffer.add_string b "\\\\"
        | '\n' -> Buffer.add_string b "\\n"
        | '\t' -> Buffer.add_string b "\\t"
        | c when Char.code c < 0x20 ->
            Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char b c)
      s;
    Buffer.contents b

  (* Chrome trace_event JSON: an array of complete ("ph":"X") events with
     microsecond timestamps relative to the first event — loadable in
     chrome://tracing and Perfetto. *)
  let export_chrome path =
    let evs = events () in
    let epoch = match evs with [] -> 0 | e :: _ -> e.t0 in
    let buf = Buffer.create 4096 in
    Buffer.add_string buf "[";
    List.iteri
      (fun i e ->
        if i > 0 then Buffer.add_char buf ',';
        Buffer.add_string buf "\n  ";
        Printf.bprintf buf
          "{\"name\": \"%s\", \"cat\": \"foc\", \"ph\": \"X\", \"ts\": \
           %.3f, \"dur\": %.3f, \"pid\": 1, \"tid\": %d}"
          (json_escape e.name)
          (float_of_int (e.t0 - epoch) /. 1e3)
          (float_of_int (e.t1 - e.t0) /. 1e3)
          e.tid)
      evs;
    Buffer.add_string buf "\n]\n";
    let oc = open_out path in
    output_string oc (Buffer.contents buf);
    close_out oc

  let by_tid (evs : event list) =
    let tbl = Hashtbl.create 8 in
    List.iter
      (fun (e : event) ->
        Hashtbl.replace tbl e.tid
          (e :: Option.value ~default:[] (Hashtbl.find_opt tbl e.tid)))
      evs;
    Hashtbl.fold (fun _ l acc -> List.rev l :: acc) tbl []
    |> List.sort (fun a b ->
           match (a, b) with
           | (e : event) :: _, (f : event) :: _ -> compare e.tid f.tid
           | _ -> 0)

  type totals = { spans : int; total_ns : int; self_ns : int }

  (* Per-name totals with self time (duration minus nested children), by
     replaying each domain's events through an interval stack. Spans are
     recorded under stack discipline per domain, so the reconstruction is
     exact. *)
  let phase_totals () =
    let acc = Hashtbl.create 16 in
    let add name dur self =
      let t =
        Option.value
          (Hashtbl.find_opt acc name)
          ~default:{ spans = 0; total_ns = 0; self_ns = 0 }
      in
      Hashtbl.replace acc name
        {
          spans = t.spans + 1;
          total_ns = t.total_ns + dur;
          self_ns = t.self_ns + self;
        }
    in
    List.iter
      (fun seq ->
        let stack : (event * int ref) list ref = ref [] in
        let rec pop_until t0 =
          match !stack with
          | (e, kids) :: rest when e.t1 <= t0 ->
              stack := rest;
              let dur = e.t1 - e.t0 in
              add e.name dur (dur - !kids);
              (match rest with
              | (_, pk) :: _ -> pk := !pk + dur
              | [] -> ());
              pop_until t0
          | _ -> ()
        in
        List.iter
          (fun e ->
            pop_until e.t0;
            stack := (e, ref 0) :: !stack)
          seq;
        pop_until max_int)
      (by_tid (events ()));
    Hashtbl.fold (fun k v acc -> (k, v) :: acc) acc []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)

  (* Spans within one domain must nest like a stack: no partial overlap. *)
  let well_nested () =
    List.for_all
      (fun seq ->
        let stack = ref [] in
        let ok = ref true in
        let rec pop_until t0 =
          match !stack with
          | e :: rest when e.t1 <= t0 ->
              stack := rest;
              pop_until t0
          | _ -> ()
        in
        List.iter
          (fun e ->
            pop_until e.t0;
            (match !stack with
            | top :: _ when e.t1 > top.t1 -> ok := false
            | _ -> ());
            stack := e :: !stack)
          seq;
        !ok)
      (by_tid (events ()))
end

(* ------------------------------------------------------------------ *)

(* Timing sinks beyond tracing (duration histograms): enabled explicitly
   (CLI --metrics) or implied by tracing. Checked before taking clock
   readings on paths that run per cl-term. *)
let timing = Atomic.make false
let set_timing b = Atomic.set timing b
let timing_enabled () = Atomic.get timing || Trace.enabled ()

let span ~name f =
  if not (Trace.enabled ()) then f ()
  else begin
    let b = Trace.buffer () in
    b.Trace.open_depth <- b.Trace.open_depth + 1;
    let depth = b.Trace.open_depth in
    let t0 = Clock.now_ns () in
    Fun.protect
      ~finally:(fun () ->
        let t1 = Clock.now_ns () in
        b.Trace.open_depth <- depth - 1;
        Trace.push b name depth t0 t1;
        match !Trace.logfmt_sink with
        | None -> ()
        | Some k ->
            k
              (Logfmt.line
                 [
                   ("span", Logfmt.Str name);
                   ("tid", Logfmt.Int b.Trace.tid);
                   ("depth", Logfmt.Int depth);
                   ("ns", Logfmt.Int (t1 - t0));
                 ]))
      f
  end

(* ------------------------------------------------------------------ *)

(* Request-scoped phase accounting. A scope is a cheap per-request context
   (an id, six self-time accumulators, a phase stack): the server creates
   one per request, stamps queue/batch-wait deltas directly, and installs
   it as the domain's ambient scope around evaluation so call sites deep in
   the session/planner ([cue]) can attribute their time without threading a
   value through every signature. Phases nest with self-time semantics —
   entering [Artifact] inside an open [Eval] pauses the eval accumulator —
   so the six numbers are disjoint and sum to covered wall time. Scopes
   are single-domain objects (worker domains see no ambient scope and
   [cue] is a no-op there); they never change an evaluation result. *)
module Scope = struct
  type phase = Queue | Batch_wait | Artifact | Plan | Eval | Write

  let phase_index = function
    | Queue -> 0
    | Batch_wait -> 1
    | Artifact -> 2
    | Plan -> 3
    | Eval -> 4
    | Write -> 5

  let phase_label = function
    | Queue -> "queue"
    | Batch_wait -> "batch_wait"
    | Artifact -> "artifact"
    | Plan -> "plan"
    | Eval -> "eval"
    | Write -> "write"

  type t = {
    id : int;
    t0 : int;  (* creation time; [finish] measures total against it *)
    ns : int array;  (* one self-time accumulator per phase *)
    mutable stack : int list;  (* open phase indices, innermost first *)
    mutable last : int;  (* clock reading at the last enter/exit *)
    mutable total : int;  (* set by [finish] *)
  }

  let create ?(id = 0) () =
    {
      id;
      t0 = Clock.now_ns ();
      ns = Array.make 6 0;
      stack = [];
      last = 0;
      total = 0;
    }

  let id s = s.id
  let add_ns s ph n = s.ns.(phase_index ph) <- s.ns.(phase_index ph) + n

  let enter s ph =
    let now = Clock.now_ns () in
    (match s.stack with
    | top :: _ -> s.ns.(top) <- s.ns.(top) + (now - s.last)
    | [] -> ());
    s.stack <- phase_index ph :: s.stack;
    s.last <- now

  let exit s =
    let now = Clock.now_ns () in
    match s.stack with
    | top :: rest ->
        s.ns.(top) <- s.ns.(top) + (now - s.last);
        s.stack <- rest;
        s.last <- now
    | [] -> ()

  let time s ph f =
    enter s ph;
    Fun.protect ~finally:(fun () -> exit s) f

  let finish s =
    s.total <- Clock.now_ns () - s.t0;
    s.total

  let total_ns s = s.total
  let phase_ns s ph = s.ns.(phase_index ph)

  let merge_phases dst src =
    for i = 0 to 5 do
      dst.ns.(i) <- dst.ns.(i) + src.ns.(i)
    done

  (* ambient per-domain current scope *)
  let current_key = Domain.DLS.new_key (fun () -> ref None)
  let current () = !(Domain.DLS.get current_key)

  let with_scope s f =
    let r = Domain.DLS.get current_key in
    let saved = !r in
    r := Some s;
    Fun.protect ~finally:(fun () -> r := saved) f

  let cue ph f =
    match current () with None -> f () | Some s -> time s ph f

  let breakdown s =
    [
      ("queue_ns", s.ns.(0));
      ("batch_wait_ns", s.ns.(1));
      ("artifact_ns", s.ns.(2));
      ("plan_ns", s.ns.(3));
      ("eval_ns", s.ns.(4));
      ("write_ns", s.ns.(5));
    ]
end

(* ------------------------------------------------------------------ *)

(* A line sink with size-based rotation — the slow-query log's backing.
   [write] appends one line and flushes; when the active file would exceed
   [max_bytes] it is rotated ([path] -> [path.1] -> ... -> [path.keep],
   oldest deleted). Mutex-protected so any thread may write. *)
module Sink = struct
  type dest =
    | Stderr
    | File of {
        path : string;
        max_bytes : int;
        keep : int;
        mutable oc : out_channel option;
        mutable written : int;
      }

  type t = { dest : dest; m : Mutex.t }

  let stderr_sink = { dest = Stderr; m = Mutex.create () }

  let create ?(max_bytes = 8 * 1024 * 1024) ?(keep = 3) path =
    let written =
      (* current size without a unix dependency *)
      match open_in_bin path with
      | ic ->
          let n = in_channel_length ic in
          close_in_noerr ic;
          n
      | exception Sys_error _ -> 0
    in
    {
      dest =
        File { path; max_bytes = max max_bytes 4096; keep = max keep 1;
               oc = None; written };
      m = Mutex.create ();
    }

  let rotate path keep =
    (try Sys.remove (Printf.sprintf "%s.%d" path keep)
     with Sys_error _ -> ());
    for i = keep - 1 downto 1 do
      try Sys.rename (Printf.sprintf "%s.%d" path i)
            (Printf.sprintf "%s.%d" path (i + 1))
      with Sys_error _ -> ()
    done;
    try Sys.rename path (path ^ ".1") with Sys_error _ -> ()

  let write t line =
    Mutex.lock t.m;
    Fun.protect
      ~finally:(fun () -> Mutex.unlock t.m)
      (fun () ->
        match t.dest with
        | Stderr -> Printf.eprintf "%s\n%!" line
        | File f ->
            let len = String.length line + 1 in
            if f.written + len > f.max_bytes then begin
              (match f.oc with Some oc -> close_out_noerr oc | None -> ());
              f.oc <- None;
              rotate f.path f.keep;
              f.written <- 0
            end;
            let oc =
              match f.oc with
              | Some oc -> oc
              | None ->
                  let oc =
                    open_out_gen [ Open_append; Open_creat ] 0o644 f.path
                  in
                  f.oc <- Some oc;
                  oc
            in
            output_string oc line;
            output_char oc '\n';
            flush oc;
            f.written <- f.written + len)

  let close t =
    Mutex.lock t.m;
    (match t.dest with
    | Stderr -> ()
    | File f ->
        (match f.oc with Some oc -> close_out_noerr oc | None -> ());
        f.oc <- None);
    Mutex.unlock t.m
end

(* ------------------------------------------------------------------ *)

(* A minimal JSON reader — enough to validate exported traces (tests, the
   CLI's trace-check) without external dependencies. *)
module Json = struct
  type t =
    | Null
    | Bool of bool
    | Num of float
    | Str of string
    | List of t list
    | Obj of (string * t) list

  exception Fail of string

  let max_depth = 256

  let parse s =
    let n = String.length s in
    let pos = ref 0 in
    let fail msg = raise (Fail (Printf.sprintf "%s at %d" msg !pos)) in
    let peek () = if !pos < n then Some s.[!pos] else None in
    let advance () = incr pos in
    let rec skip_ws () =
      match peek () with
      | Some (' ' | '\t' | '\n' | '\r') ->
          advance ();
          skip_ws ()
      | _ -> ()
    in
    let expect c =
      match peek () with
      | Some d when d = c -> advance ()
      | _ -> fail (Printf.sprintf "expected %c" c)
    in
    let literal word v =
      let l = String.length word in
      if !pos + l <= n && String.sub s !pos l = word then begin
        pos := !pos + l;
        v
      end
      else fail ("expected " ^ word)
    in
    let parse_string () =
      expect '"';
      let b = Buffer.create 16 in
      let rec go () =
        match peek () with
        | None -> fail "unterminated string"
        | Some '"' -> advance ()
        | Some '\\' ->
            advance ();
            (match peek () with
            | Some '"' -> Buffer.add_char b '"'; advance ()
            | Some '\\' -> Buffer.add_char b '\\'; advance ()
            | Some '/' -> Buffer.add_char b '/'; advance ()
            | Some 'b' -> Buffer.add_char b '\b'; advance ()
            | Some 'f' -> Buffer.add_char b '\012'; advance ()
            | Some 'n' -> Buffer.add_char b '\n'; advance ()
            | Some 'r' -> Buffer.add_char b '\r'; advance ()
            | Some 't' -> Buffer.add_char b '\t'; advance ()
            | Some 'u' ->
                advance ();
                if !pos + 4 > n then fail "bad \\u escape";
                let hex = String.sub s !pos 4 in
                pos := !pos + 4;
                let cp =
                  try int_of_string ("0x" ^ hex)
                  with _ -> fail "bad \\u escape"
                in
                (* encode the code point as UTF-8 (no surrogate pairing —
                   our own traces are ASCII) *)
                if cp < 0x80 then Buffer.add_char b (Char.chr cp)
                else if cp < 0x800 then begin
                  Buffer.add_char b (Char.chr (0xC0 lor (cp lsr 6)));
                  Buffer.add_char b (Char.chr (0x80 lor (cp land 0x3F)))
                end
                else begin
                  Buffer.add_char b (Char.chr (0xE0 lor (cp lsr 12)));
                  Buffer.add_char b
                    (Char.chr (0x80 lor ((cp lsr 6) land 0x3F)));
                  Buffer.add_char b (Char.chr (0x80 lor (cp land 0x3F)))
                end
            | _ -> fail "bad escape");
            go ()
        | Some c ->
            Buffer.add_char b c;
            advance ();
            go ()
      in
      go ();
      Buffer.contents b
    in
    let parse_number () =
      let start = !pos in
      let num_char c =
        (c >= '0' && c <= '9')
        || c = '-' || c = '+' || c = '.' || c = 'e' || c = 'E'
      in
      while (match peek () with Some c -> num_char c | None -> false) do
        advance ()
      done;
      if !pos = start then fail "expected number";
      match float_of_string_opt (String.sub s start (!pos - start)) with
      | Some f -> f
      | None -> fail "bad number"
    in
    (* [depth] counts the arrays and objects open around this value; past
       [max_depth] the input is rejected instead of recursing further *)
    let rec parse_value depth =
      skip_ws ();
      match peek () with
      | None -> fail "unexpected end of input"
      | Some '"' -> Str (parse_string ())
      | Some ('{' | '[') when depth >= max_depth -> fail "nesting too deep"
      | Some '{' ->
          advance ();
          skip_ws ();
          if peek () = Some '}' then begin
            advance ();
            Obj []
          end
          else begin
            let rec members acc =
              skip_ws ();
              let k = parse_string () in
              skip_ws ();
              expect ':';
              let v = parse_value (depth + 1) in
              skip_ws ();
              match peek () with
              | Some ',' ->
                  advance ();
                  members ((k, v) :: acc)
              | Some '}' ->
                  advance ();
                  List.rev ((k, v) :: acc)
              | _ -> fail "expected , or }"
            in
            Obj (members [])
          end
      | Some '[' ->
          advance ();
          skip_ws ();
          if peek () = Some ']' then begin
            advance ();
            List []
          end
          else begin
            let rec elements acc =
              let v = parse_value (depth + 1) in
              skip_ws ();
              match peek () with
              | Some ',' ->
                  advance ();
                  elements (v :: acc)
              | Some ']' ->
                  advance ();
                  List.rev (v :: acc)
              | _ -> fail "expected , or ]"
            in
            List (elements [])
          end
      | Some 't' -> literal "true" (Bool true)
      | Some 'f' -> literal "false" (Bool false)
      | Some 'n' -> literal "null" Null
      | Some _ -> Num (parse_number ())
    in
    match
      let v = parse_value 0 in
      skip_ws ();
      if !pos <> n then fail "trailing garbage";
      v
    with
    | v -> Ok v
    | exception Fail m -> Error m

  let member k = function
    | Obj fields -> List.assoc_opt k fields
    | _ -> None
end
