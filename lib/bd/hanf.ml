module Structure = Foc_data.Structure

let ball_key ?(max_ball = 48) ?scratch a g ~r v =
  let ball = Foc_graph.Bfs.ball_tbl g ~centres:[ v ] ~radius:r in
  if Hashtbl.length ball > max_ball then
    (* too big to canonicalize cheaply: singleton class *)
    Printf.sprintf "!uniq%d" v
  else Ball_type.ball_key ?scratch a ~centre:v ~r

let classes ?(max_ball = 48) ?(jobs = 1) a ~r =
  let g = Structure.gaifman a in
  let n = Structure.order a in
  (* canonicalising one r-ball per element is the expensive, embarrassingly
     parallel part (each domain reuses one canonicalization scratch);
     grouping is a cheap sequential pass in element order, so the class
     list is identical for every jobs setting *)
  let keys =
    if jobs <= 1 then
      Foc_obs.span ~name:"hanf.keys" (fun () ->
          let scratch = Ball_type.scratch () in
          Array.init n (ball_key ~max_ball ~scratch a g ~r))
    else begin
      Structure.prepare a;
      Foc_par.tabulate_ctx ~jobs ~label:"hanf.keys"
        ~make_ctx:Ball_type.scratch n
        (fun scratch v -> ball_key ~max_ball ~scratch a g ~r v)
    end
  in
  (* hash-cons each key string once; the grouping below then works on
     dense int ids (first-occurrence order), so it compares ints, not
     strings, and the class list is deterministic *)
  Foc_obs.span ~name:"hanf.group" (fun () ->
      let it = Ball_type.interner () in
      let ids = Array.map (Ball_type.intern it) keys in
      let m = Ball_type.interned_count it in
      let members = Array.make m [] in
      let name = Array.make m "" in
      for v = n - 1 downto 0 do
        let id = ids.(v) in
        members.(id) <- v :: members.(id);
        name.(id) <- keys.(v)
      done;
      List.init m (fun id -> (name.(id), members.(id))))

let eval_by_type ?max_ball ?jobs a ~r f =
  let out = Array.make (Structure.order a) 0 in
  List.iter
    (fun (_, members) ->
      match members with
      | [] -> ()
      | rep :: _ ->
          let value = f rep in
          List.iter (fun v -> out.(v) <- value) members)
    (classes ?max_ball ?jobs a ~r);
  out

let type_count ?max_ball ?jobs a ~r = List.length (classes ?max_ball ?jobs a ~r)
