(* A fixed-size domain pool with deterministic chunked combinators. See the
   .mli for the contracts (determinism, sequential path, per-domain
   contexts). *)

let recommended_jobs () = Domain.recommended_domain_count ()

let default_jobs () =
  match Sys.getenv_opt "FOC_JOBS" with
  | Some s -> (
      match int_of_string_opt (String.trim s) with
      | Some j when j >= 1 -> j
      | _ -> recommended_jobs ())
  | None -> recommended_jobs ()

(* ---------------- the pool ---------------- *)

(* Tasks receive the executor slot: 0 for the submitting domain, the worker
   id (1-based) for pool workers. Only workers with id <= active_limit may
   take work, so a batch at [jobs] uses at most [jobs] executors even when
   the pool has grown larger for an earlier batch. *)
type pool = {
  mutex : Mutex.t;
  work : Condition.t;  (* workers: work available / shutdown *)
  idle : Condition.t;  (* submitter: batch drained *)
  tasks : (int -> unit) Queue.t;
  mutable active_limit : int;
  mutable pending : int;
  mutable failed : (exn * Printexc.raw_backtrace) option;
  mutable in_batch : bool;
  mutable stop : bool;
  mutable domains : unit Domain.t list;
}

let pool =
  {
    mutex = Mutex.create ();
    work = Condition.create ();
    idle = Condition.create ();
    tasks = Queue.create ();
    active_limit = 0;
    pending = 0;
    failed = None;
    in_batch = false;
    stop = false;
    domains = [];
  }

let pool_size () =
  Mutex.lock pool.mutex;
  let n = List.length pool.domains in
  Mutex.unlock pool.mutex;
  n

(* Nested parallel calls (from inside a running task) degrade to the
   sequential path instead of touching the pool. *)
let in_worker = Domain.DLS.new_key (fun () -> false)

(* The backtrace must be captured on the failing executor, before any
   other OCaml code runs there — [raise e] at the join point would
   otherwise report the submitter's stack instead of the task's. *)
let record_failure e bt =
  Mutex.lock pool.mutex;
  if pool.failed = None then pool.failed <- Some (e, bt);
  Mutex.unlock pool.mutex

let finish_task () =
  Mutex.lock pool.mutex;
  pool.pending <- pool.pending - 1;
  if pool.pending = 0 then Condition.broadcast pool.idle;
  Mutex.unlock pool.mutex

let worker_loop wid () =
  Domain.DLS.set in_worker true;
  let rec loop () =
    Mutex.lock pool.mutex;
    while
      (not pool.stop)
      && (Queue.is_empty pool.tasks || wid > pool.active_limit)
    do
      Condition.wait pool.work pool.mutex
    done;
    if pool.stop then Mutex.unlock pool.mutex
    else begin
      let task = Queue.pop pool.tasks in
      Mutex.unlock pool.mutex;
      (try task wid
       with e -> record_failure e (Printexc.get_raw_backtrace ()));
      finish_task ();
      loop ()
    end
  in
  loop ()

(* OCaml caps the number of live domains (128 including the main one);
   leave generous headroom. *)
let max_workers = 96

let ensure_workers k =
  let k = min k max_workers in
  Mutex.lock pool.mutex;
  let have = List.length pool.domains in
  Mutex.unlock pool.mutex;
  if have < k then begin
    (* spawn outside the lock: freshly spawned workers grab it themselves *)
    let spawned = ref [] in
    (try
       for wid = have + 1 to k do
         spawned := Domain.spawn (worker_loop wid) :: !spawned
       done
     with _ -> () (* domain limit reached: run with what we have *));
    Mutex.lock pool.mutex;
    pool.domains <- pool.domains @ List.rev !spawned;
    Mutex.unlock pool.mutex
  end

let shutdown () =
  Mutex.lock pool.mutex;
  pool.stop <- true;
  Condition.broadcast pool.work;
  let ds = pool.domains in
  pool.domains <- [];
  Mutex.unlock pool.mutex;
  List.iter Domain.join ds;
  Mutex.lock pool.mutex;
  pool.stop <- false;
  Mutex.unlock pool.mutex

let exit_hook_registered = ref false

let register_exit_hook () =
  if not !exit_hook_registered then begin
    exit_hook_registered := true;
    at_exit shutdown
  end

(* Run [task slot c] for every chunk index [c] in [0..nc-1] on up to [jobs]
   executors; the calling domain participates as slot 0. Blocks until the
   batch drains; re-raises the first task exception. *)
let run_batch ~jobs nc (task : int -> int -> unit) =
  register_exit_hook ();
  ensure_workers (jobs - 1);
  (* backtrace recording and the metrics registry in scope are
     per-domain: carry the submitter's into every executor, or a failure
     landing on a worker spawned before [Printexc.record_backtrace true]
     would capture an empty trace, and worker counters would miss the
     submitter's registry *)
  let bt_on = Printexc.backtrace_status () in
  let registry = Foc_obs.Metrics.current () in
  let task slot c =
    if Printexc.backtrace_status () <> bt_on then
      Printexc.record_backtrace bt_on;
    Foc_obs.Metrics.with_current registry (fun () -> task slot c)
  in
  Mutex.lock pool.mutex;
  pool.in_batch <- true;
  pool.failed <- None;
  pool.pending <- nc;
  pool.active_limit <- min (jobs - 1) (List.length pool.domains);
  for c = 0 to nc - 1 do
    Queue.add (fun slot -> task slot c) pool.tasks
  done;
  Condition.broadcast pool.work;
  (* the submitter drains the queue alongside the workers *)
  let rec drain () =
    match Queue.take_opt pool.tasks with
    | Some t ->
        Mutex.unlock pool.mutex;
        (try t 0 with e -> record_failure e (Printexc.get_raw_backtrace ()));
        finish_task ();
        Mutex.lock pool.mutex;
        drain ()
    | None ->
        while pool.pending > 0 do
          Condition.wait pool.idle pool.mutex
        done
  in
  drain ();
  pool.active_limit <- 0;
  pool.in_batch <- false;
  let failed = pool.failed in
  pool.failed <- None;
  Mutex.unlock pool.mutex;
  match failed with
  | Some (e, bt) -> Printexc.raise_with_backtrace e bt
  | None -> ()

(* ---------------- chunking ---------------- *)

(* Chunk layout depends only on (n, nc), never on scheduling, so partials
   combine in a fixed order. More chunks than executors smooths uneven
   per-element work (ball sizes vary wildly across anchors). *)
let chunks_per_job = 4

let default_chunks ~jobs n = max 1 (min n (jobs * chunks_per_job))

let chunk_bounds n nc c =
  let base = n / nc and rem = n mod nc in
  let lo = (c * base) + min c rem in
  let hi = lo + base + if c < rem then 1 else 0 in
  (lo, hi)

let sequential_only ~jobs n =
  jobs <= 1 || n <= 1 || Domain.DLS.get in_worker || pool.in_batch

(* ---------------- combinators ---------------- *)

(* Optional span labelling: when a call site names its sweep, the
   sequential path records one span and the parallel path one span per
   chunk (in the executing domain's buffer — that is what makes worker
   activity visible in the merged trace). No label, no overhead; with a
   label but tracing disabled, [Foc_obs.span] is one atomic read. *)
let with_label label f =
  match label with None -> f () | Some name -> Foc_obs.span ~name f

let parallel_for ~jobs ?chunks ?label n f =
  if n <= 0 then ()
  else if sequential_only ~jobs n then
    with_label label (fun () ->
        for i = 0 to n - 1 do
          f i
        done)
  else begin
    let nc =
      match chunks with
      | Some c -> max 1 (min n c)
      | None -> default_chunks ~jobs n
    in
    run_batch ~jobs nc (fun _slot c ->
        with_label label (fun () ->
            let lo, hi = chunk_bounds n nc c in
            for i = lo to hi - 1 do
              f i
            done))
  end

let tabulate_ctx ~jobs ?chunks ?label ~make_ctx n f =
  if n <= 0 then [||]
  else if sequential_only ~jobs n then begin
    let ctx = make_ctx () in
    with_label label (fun () -> Array.init n (f ctx))
  end
  else begin
    let slots = Array.make jobs None in
    let ctx_of slot =
      match slots.(slot) with
      | Some c -> c
      | None ->
          let c = make_ctx () in
          slots.(slot) <- Some c;
          c
    in
    (* element 0 seeds the result array (and slot 0's context) in the
       calling domain, so no dummy value is ever needed *)
    let out = Array.make n (f (ctx_of 0) 0) in
    let rest = n - 1 in
    if rest > 0 then begin
      let nc =
        match chunks with
        | Some c -> max 1 (min rest c)
        | None -> default_chunks ~jobs rest
      in
      run_batch ~jobs nc (fun slot c ->
          with_label label (fun () ->
              let ctx = ctx_of slot in
              let lo, hi = chunk_bounds rest nc c in
              for i = lo + 1 to hi do
                out.(i) <- f ctx i
              done))
    end;
    out
  end

let tabulate ~jobs ?chunks ?label n f =
  tabulate_ctx ~jobs ?chunks ?label
    ~make_ctx:(fun () -> ())
    n
    (fun () i -> f i)
