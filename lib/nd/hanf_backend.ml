open Foc_local
module Structure = Foc_data.Structure

let type_radius (b : Clterm.basic) =
  let k = Foc_graph.Pattern.k b.Clterm.pattern in
  max 1 (k * ((2 * b.Clterm.radius) + 1))

let basic_vector ~jobs ?cache_bytes ~classes_for preds a (b : Clterm.basic) =
  (* one representative per class, evaluated with a per-domain context
     and evaluation plan (hoisted out of the per-class calls); at
     [jobs = 1] this is the sequential loop *)
  if jobs > 1 then Structure.prepare a;
  let cls = Array.of_list (classes_for ~r:(type_radius b)) in
  let values =
    Foc_par.tabulate_ctx ~jobs ~label:"sweep.types"
      ~make_ctx:(fun () ->
        let ctx =
          Pattern_count.make_ctx ?cache_bytes preds a ~r:b.Clterm.radius
        in
        let plan =
          Pattern_count.make_plan ctx ~pattern:b.Clterm.pattern
            ~vars:b.Clterm.vars ~body:b.Clterm.body
        in
        (ctx, plan))
      (Array.length cls)
      (fun (ctx, plan) i ->
        match snd cls.(i) with
        | [] -> 0
        | rep :: _ -> Pattern_count.at ctx plan rep)
  in
  let out = Array.make (Structure.order a) 0 in
  Array.iteri
    (fun i (_, members) -> List.iter (fun v -> out.(v) <- values.(i)) members)
    cls;
  out

let sweep ?(jobs = 1) ?cache_bytes ~classes_for preds a =
  Clterm.sweep preds a (basic_vector ~jobs ?cache_bytes ~classes_for preds a)
