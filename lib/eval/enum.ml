open Foc_logic

(* Pull-based answer enumeration (ROADMAP: Kazana–Segoufin-style
   preprocessing-then-enumeration, arXiv:1105.3583). A cursor yields query
   answers one at a time in the canonical order — ascending lexicographic
   on the head tuple, the order {!Relalg.query} materialises — so a
   streamed result is bit-identical to the materialised one, and [?after]
   resumption is a seek. *)

type row = int array * int array

type cursor = {
  producer : string;
  next : unit -> row option;
  close : unit -> unit;
}

let producer c = c.producer

(* Shared wrapper: limit enforcement, close/exhaustion latching, and the
   Eval_obs instrumentation (rows yielded, per-[next] delay histogram,
   time-to-first-row including producer preprocessing). *)
let make ?limit ~producer ~next:gen ~close () =
  Eval_obs.note_cursor_opened ();
  let opened_ns = Foc_obs.Clock.now_ns () in
  let yielded = ref 0 in
  let finished = ref false in
  let closed = ref false in
  let next () =
    if !finished || !closed then None
    else if (match limit with Some l -> !yielded >= l | None -> false) then begin
      finished := true;
      None
    end
    else begin
      let t0 = Foc_obs.Clock.now_ns () in
      match gen () with
      | None ->
          finished := true;
          None
      | Some _ as r ->
          let now = Foc_obs.Clock.now_ns () in
          if !yielded = 0 then Eval_obs.note_enum_first ~ns:(now - opened_ns);
          Eval_obs.note_enum_row ~delay_ns:(now - t0);
          incr yielded;
          r
    end
  in
  let close () =
    if not !closed then begin
      closed := true;
      close ()
    end
  in
  { producer; next; close }

(* ---- producers: the leapfrog kernel, lazily ----

   [of_table] streams the planned body search of {!Relalg.head_search}:
   the prefix of the join plan is paid up front, its last join runs
   lazily. [walk] makes every conjunct an atom aligned to head order
   (re-sorted only when its columns are out of that order); head
   variables no positive conjunct mentions range over the whole domain,
   matching [Table.extend_full] semantics. All preparation happens before
   the cursor is returned; [next] only advances the search, and [?after]
   resumes by seeking. *)

let of_search ?limit ~producer ~values next =
  let gen () =
    Option.map
      (fun vals ->
        let tup = Array.copy vals in
        (tup, values tup))
      (next ())
  in
  make ?limit ~producer ~next:gen ~close:(fun () -> ()) ()

let of_table ?limit ~values next = of_search ?limit ~producer:"table" ~values next

let walk ?limit ?after ~values ~n ~head ~neg conjuncts =
  let atom ~neg t =
    if not (Array.for_all (fun x -> Array.exists (Var.equal x) head) (Table.vars t))
    then invalid_arg "Enum.walk: conjunct var outside head";
    Table.atom ~neg ~order:head t
  in
  of_search ?limit ~producer:"walk" ~values
    (Leapfrog.search ?after ~n ~width:(Array.length head)
       (List.map (atom ~neg:false) conjuncts @ List.map (atom ~neg:true) neg))

(* ---- conveniences ---- *)

let of_rows ?limit ?after ~producer rows =
  let rows =
    match after with
    | None -> rows
    | Some a -> List.filter (fun (tup, _) -> Foc_data.Tuple.compare tup a > 0) rows
  in
  let rest = ref rows in
  let gen () =
    match !rest with
    | [] -> None
    | r :: tl ->
        rest := tl;
        Some r
  in
  make ?limit ~producer ~next:gen ~close:(fun () -> ()) ()

let to_list c =
  let acc = ref [] in
  let rec go () =
    match c.next () with
    | None -> ()
    | Some r ->
        acc := r :: !acc;
        go ()
  in
  go ();
  c.close ();
  List.rev !acc
