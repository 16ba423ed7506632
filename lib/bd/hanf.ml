module Structure = Foc_data.Structure
module Signature = Foc_data.Signature
module TS = Foc_data.Tuple.Set

(* a 63-bit xor-shift-multiply finaliser: every input bit reaches every
   output bit *)
let mix h =
  let h = (h lxor (h lsr 31)) * 0x3f58476d1ce4e5b9 in
  let h = (h lxor (h lsr 29)) * 0x14d049bb133111eb in
  h lxor (h lsr 32)

(* [refine a ~r] — the colour after r rounds of refinement over the whole
   structure, as hashes. Round 0 sums one hash per row whose entries are
   all the element (unary facts, loops); round s mixes the round-(s-1)
   colour with an order-independent sum, over the rows containing the
   element, of (relation, position, the row's entry colours). Colour r
   of [v] reads only rows inside N_r(v), so it depends only on the
   isomorphism type of the rooted ball. Hashing, not [Ball_type.refine]'s
   sorted ranks: r rounds of that over the whole of a bd-3 structure
   with n = 4000 took 130 ms at r = 2, against 4.5 ms for this pass with
   the keys it leaves. *)
let refine a ~r =
  let n = Structure.order a in
  let rels =
    List.mapi
      (fun k (name, _) -> (mix (k + 1), Structure.rel a name))
      (Signature.to_list (Structure.signature a))
    |> List.filter (fun (_, core) -> core.TS.width > 0)
  in
  let c = Array.make n 0 in
  List.iter
    (fun (seed, { TS.width = w; nrows; data }) ->
      for j = 0 to nrows - 1 do
        let e = data.(j * w) in
        let rec self i = i = w || (data.((j * w) + i) = e && self (i + 1)) in
        if self 1 then c.(e) <- c.(e) + seed
      done)
    rels;
  let acc = Array.make n 0 in
  for _ = 1 to r do
    Array.fill acc 0 n 0;
    List.iter
      (fun (seed, { TS.width = w; nrows; data }) ->
        for j = 0 to nrows - 1 do
          let h = ref seed in
          for i = j * w to ((j + 1) * w) - 1 do
            h := mix (!h + c.(data.(i)))
          done;
          for i = 0 to w - 1 do
            let e = data.((j * w) + i) in
            acc.(e) <- acc.(e) + mix (!h + i)
          done
        done)
      rels;
    for v = 0 to n - 1 do
      c.(v) <- mix (mix c.(v) + acc.(v))
    done
  done;
  c

let classes ?(max_ball = 48) ?(jobs = 1) a ~r =
  let n = Structure.order a in
  let reg = Foc_obs.Metrics.current () in
  Foc_obs.Metrics.Counter.add (Foc_obs.Metrics.counter reg "hanf.elements") n;
  (* isomorphic balls get equal colours, so an element alone in its colour
     is alone in its class: only the elements sharing a colour need an
     exact key (a hash collision merely keys a few more) *)
  let shared =
    Foc_obs.span ~name:"hanf.refine" (fun () ->
        let c = refine a ~r in
        let idx = Array.init n Fun.id in
        Array.sort (fun u v -> Int.compare c.(u) c.(v)) idx;
        let shared = Array.make n false in
        for t = 1 to n - 1 do
          if c.(idx.(t)) = c.(idx.(t - 1)) then begin
            shared.(idx.(t)) <- true;
            shared.(idx.(t - 1)) <- true
          end
        done;
        shared)
  in
  let todo = Array.of_seq (Seq.filter (Array.get shared) (Seq.init n Fun.id)) in
  Foc_obs.Metrics.Counter.add
    (Foc_obs.Metrics.counter reg "hanf.canonicalised")
    (Array.length todo);
  (* canonicalising those r-balls is the expensive, embarrassingly
     parallel part (each domain reuses one canonicalization scratch);
     grouping is a cheap sequential pass in element order, so the class
     list is identical for every jobs setting *)
  Structure.prepare a;
  let keys =
    Foc_par.tabulate_ctx ~jobs ~label:"hanf.keys" ~make_ctx:Ball_type.scratch
      (Array.length todo) (fun scratch i ->
        Ball_type.ball_key ~max_ball ~scratch a ~centre:todo.(i) ~r)
  in
  (* classes in order of first occurrence, members ascending: the class
     list is deterministic *)
  Foc_obs.span ~name:"hanf.group" (fun () ->
      let tbl = Hashtbl.create 256 and classes = ref [] and next = ref 0 in
      for v = 0 to n - 1 do
        if not shared.(v) then
          classes := (Ball_type.unique_key v, ref [ v ]) :: !classes
        else begin
          let k = keys.(!next) in
          incr next;
          match Hashtbl.find_opt tbl k with
          | Some members -> members := v :: !members
          | None ->
              let members = ref [ v ] in
              Hashtbl.add tbl k members;
              classes := (k, members) :: !classes
        end
      done;
      List.rev_map (fun (k, members) -> (k, List.rev !members)) !classes)

let type_count ?max_ball ?jobs a ~r = List.length (classes ?max_ball ?jobs a ~r)

(* per class: its list cell and pair (3 words each), the key's block (a
   header and the bytes padded to whole words) and one 3-word cell per
   member *)
let approx_bytes cls =
  let word = Sys.word_size / 8 in
  List.fold_left
    (fun acc (key, members) ->
      acc + (word * (8 + (String.length key / word) + (3 * List.length members))))
    0 cls
