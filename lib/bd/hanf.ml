module Structure = Foc_data.Structure

let classes ?(max_ball = 48) ?(jobs = 1) a ~r =
  let n = Structure.order a in
  (* canonicalising one r-ball per element is the expensive, embarrassingly
     parallel part (each domain reuses one canonicalization scratch);
     grouping is a cheap sequential pass in element order, so the class
     list is identical for every jobs setting *)
  Structure.prepare a;
  let keys =
    Foc_par.tabulate_ctx ~jobs ~label:"hanf.keys" ~make_ctx:Ball_type.scratch
      n (fun scratch v -> Ball_type.ball_key ~max_ball ~scratch a ~centre:v ~r)
  in
  (* classes in order of first occurrence, members ascending: the class
     list is deterministic *)
  Foc_obs.span ~name:"hanf.group" (fun () ->
      let tbl = Hashtbl.create 256 and classes = ref [] in
      Array.iteri
        (fun v k ->
          match Hashtbl.find_opt tbl k with
          | Some members -> members := v :: !members
          | None ->
              let members = ref [ v ] in
              Hashtbl.add tbl k members;
              classes := (k, members) :: !classes)
        keys;
      List.rev_map (fun (k, members) -> (k, List.rev !members)) !classes)

let type_count ?max_ball ?jobs a ~r = List.length (classes ?max_ball ?jobs a ~r)
