(* The byte-bounded cache behind a session's {!Artifact_store}, with the
   second-chance policy of the ball cache: entries queue in insertion
   order, a hit sets a reference bit, and the evictor pops the oldest
   entry, requeueing it once if the bit is set. It never shrinks below one
   entry, so a capacity of 0 is a one-entry cache. Without a capacity it
   is unbounded: it never sizes, queues or evicts an entry.

   Entry sizes are dynamic (a ball context grows after insertion), so
   every trim re-sizes all entries first; there is one entry per
   artifact, not per ball. Re-inserting a live key cannot remove its old
   FIFO node in O(1), so the FIFO holds (key, insertion stamp) pairs and
   a popped node whose stamp no longer matches the live entry is skipped,
   never evicted — else trim could evict the fresh copy of a hot key
   while colder entries survive. Insert compacts the queue once such
   stale nodes pile up. *)

type 'v entry = {
  value : 'v;
  mutable bytes : int;  (* the last size taken *)
  mutable referenced : bool;
  stamp : int;  (* matches the live FIFO node for this key *)
}

type ('k, 'v) t = {
  tbl : ('k, 'v entry) Hashtbl.t;
  fifo : ('k * int) Queue.t;
  capacity : int option;  (* bytes; [None]: unbounded *)
  size : 'v -> int;
  on_evict : 'k -> 'v -> unit;
  mutable tick : int;  (* insertion stamp source *)
}

let create ?(on_evict = fun _ _ -> ()) ?capacity ~size () =
  {
    tbl = Hashtbl.create 16;
    fifo = Queue.create ();
    capacity = Option.map (max 0) capacity;
    size;
    on_evict;
    tick = 0;
  }

let length t = Hashtbl.length t.tbl
let mem t k = Hashtbl.mem t.tbl k

let find t k =
  match Hashtbl.find_opt t.tbl k with
  | Some e ->
      e.referenced <- true;
      Some e.value
  | None -> None

(* re-sizes every entry *)
let bytes_used t =
  Hashtbl.fold
    (fun _ e acc ->
      e.bytes <- t.size e.value;
      acc + e.bytes)
    t.tbl 0

(* a FIFO node is live iff the table holds an entry with the same stamp *)
let live t (key, stamp) =
  match Hashtbl.find_opt t.tbl key with
  | Some e -> e.stamp = stamp
  | None -> false

let trim t =
  match t.capacity with
  | None -> ()
  | Some capacity ->
      let used = ref (bytes_used t) in
      while
        !used > capacity
        && Hashtbl.length t.tbl > 1
        && not (Queue.is_empty t.fifo)
      do
        let ((key, _) as node) = Queue.take t.fifo in
        if live t node then
          match Hashtbl.find t.tbl key with
          | e when e.referenced && not (Queue.is_empty t.fifo) ->
              e.referenced <- false;
              Queue.add node t.fifo
          | e ->
              Hashtbl.remove t.tbl key;
              used := !used - e.bytes;
              t.on_evict key e.value
      done

(* drop stale FIFO nodes once they outnumber live entries 4:1 — keeps the
   queue O(entries) under workloads that re-insert the same keys forever
   (a server rebinding ball contexts on every write) *)
let compact t =
  if Queue.length t.fifo > 4 * (Hashtbl.length t.tbl + 1) then begin
    let nodes = Queue.to_seq t.fifo |> List.of_seq in
    Queue.clear t.fifo;
    List.iter (fun n -> if live t n then Queue.add n t.fifo) nodes
  end

let insert t k v =
  t.tick <- t.tick + 1;
  Hashtbl.replace t.tbl k
    { value = v; bytes = 0; referenced = false; stamp = t.tick };
  if Option.is_some t.capacity then begin
    Queue.add (k, t.tick) t.fifo;
    compact t;
    trim t
  end

(* explicit invalidation — not an eviction, so [on_evict] is not called *)
let remove t k = Hashtbl.remove t.tbl k

let fold t ~init ~f =
  Hashtbl.fold (fun k e acc -> f k e.value acc) t.tbl init
