(* Tests for the persistent prepared-structure store (lib/store): the
   fixed-width wire codec, the checksummed snapshot container, the flat
   artifact cores (Graph/Cover/Stats), the write-ahead log, and the
   session-level save/load round trip.

   Two master properties:
   - robustness: no file content — truncated, bit-flipped, or outright
     garbage — may crash a loader; damage yields [Error] (or a shorter
     valid WAL prefix), never an exception and never a wrong answer;
   - bit-identity: a session restored from snapshot + WAL answers exactly
     like a fresh engine on the structure with every update applied. *)

module Wire = Foc_store.Wire
module Container = Foc_store.Container
module Wal = Foc.Wal
module Store = Foc.Store

let coloured seed g =
  let rng = Random.State.make [| seed |] in
  Foc.Db_gen.colored_digraph rng ~graph:g ~orient:`Both ~p_red:0.3
    ~p_blue:0.4 ~p_green:0.3

let structure n seed =
  let rng = Random.State.make [| n; seed |] in
  coloured seed (Foc.Gen.random_bounded_degree rng n 3)

let config backend = { Foc.Engine.default_config with backend; jobs = 1 }

let fresh_check backend a phi =
  Foc.Engine.check (Foc.Engine.create ~config:(config backend) ()) a phi

let parse = Foc.parse_formula

(* fresh store directory per call; cleaned eagerly so failed runs don't
   fill /tmp, but a leak is harmless *)
let with_store_dir f =
  let dir = Filename.temp_file "foc_test_store" ".d" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () ->
      (try
         Array.iter
           (fun e -> try Sys.remove (Filename.concat dir e) with _ -> ())
           (Sys.readdir dir)
       with Sys_error _ -> ());
      try Sys.rmdir dir with Sys_error _ -> ())
    (fun () -> f dir)

let read_file path = In_channel.with_open_bin path In_channel.input_all

let write_file path s =
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc s)

(* ---------------- wire codec ---------------- *)

let test_wire_roundtrip () =
  let ints =
    [ 0; 1; -1; 42; max_int; min_int; 0x7fffffff; -0x80000000 ]
  in
  let strs = [ ""; "E"; "a\nb\000c"; String.make 300 'x' ] in
  let arr = [| 3; -7; 0; max_int |] in
  let w = Wire.writer () in
  List.iter (Wire.put_int w) ints;
  List.iter (Wire.put_string w) strs;
  Wire.put_int_array w arr;
  Wire.put_int_list w [ 9; 8; 7 ];
  let r = Wire.reader (Wire.contents w) in
  List.iter
    (fun i -> Alcotest.(check int) "int" i (Wire.get_int r))
    ints;
  List.iter
    (fun s -> Alcotest.(check string) "string" s (Wire.get_string r))
    strs;
  Alcotest.(check (array int)) "array" arr (Wire.get_int_array r);
  Alcotest.(check (list int)) "list" [ 9; 8; 7 ] (Wire.get_int_list r);
  Wire.expect_end r

let test_wire_bounds () =
  (* a length prefix larger than the remaining bytes must be rejected,
     not allocated *)
  let w = Wire.writer () in
  Wire.put_int w max_int;
  let r = Wire.reader (Wire.contents w) in
  Alcotest.check_raises "huge length" (Wire.Corrupt "implausible length")
    (fun () ->
      try ignore (Wire.get_string r)
      with Wire.Corrupt _ -> raise (Wire.Corrupt "implausible length"));
  let r2 = Wire.reader "\x01\x02\x03" in
  Alcotest.check_raises "short int" (Wire.Corrupt "truncated") (fun () ->
      try ignore (Wire.get_int r2)
      with Wire.Corrupt _ -> raise (Wire.Corrupt "truncated"))

(* int arrays are written at the narrowest width that holds every
   element; each width, and values on either side of its bounds, must
   round-trip *)
let prop_wire_int_widths =
  let bound =
    QCheck.oneofl
      [ 0; 1; 0x7f; 0x80; 0x7fff; 0x8000; 0x7fff_ffff; 0x8000_0000; max_int ]
  in
  QCheck.Test.make ~name:"wire: int arrays round-trip at every width"
    ~count:200
    QCheck.(list (pair bound (int_range (-2) 2)))
    (fun l ->
      let a = Array.of_list (List.map (fun (b, d) -> b + d) l) in
      let a = Array.mapi (fun i v -> if i mod 2 = 0 then v else -v) a in
      let w = Wire.writer () in
      Wire.put_int_array w a;
      Wire.put_int_list w (Array.to_list a);
      let r = Wire.reader (Wire.contents w) in
      let a' = Wire.get_int_array r in
      let l' = Wire.get_int_list r in
      Wire.expect_end r;
      a' = a && l' = Array.to_list a)

let test_wire_bad_width () =
  let w = Wire.writer () in
  Wire.put_int_array w [| 1; 2; 3 |];
  let good = Wire.contents w in
  (* byte 8 is the width *)
  List.iter
    (fun k ->
      let b = Bytes.of_string good in
      Bytes.set b 8 (Char.chr k);
      match Wire.get_int_array (Wire.reader (Bytes.to_string b)) with
      | exception Wire.Corrupt _ -> ()
      | _ -> Alcotest.failf "width %d accepted" k)
    [ 0; 3; 8; 255 ]

let test_crc32 () =
  (* IEEE CRC-32 known-answer test *)
  let s = "123456789" in
  Alcotest.(check int) "crc32 check vector" 0xCBF43926
    (Wire.crc32 s ~pos:0 ~len:(String.length s))

(* the eight-bytes-a-step CRC agrees with the textbook bit-serial one on
   every window of a random string *)
let prop_crc32_reference =
  let reference s ~pos ~len =
    let c = ref 0xFFFFFFFF in
    for i = pos to pos + len - 1 do
      c := !c lxor Char.code s.[i];
      for _ = 0 to 7 do
        c := if !c land 1 = 1 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
      done
    done;
    !c lxor 0xFFFFFFFF
  in
  QCheck.Test.make ~name:"crc32 = bit-serial reference" ~count:200
    QCheck.(triple (string_of_size (Gen.int_range 0 100)) small_nat small_nat)
    (fun (s, a, b) ->
      let n = String.length s in
      let pos = if n = 0 then 0 else a mod (n + 1) in
      let len = if n - pos = 0 then 0 else b mod (n - pos + 1) in
      Wire.crc32 s ~pos ~len = reference s ~pos ~len)

(* ---------------- container ---------------- *)

let sections =
  [ ("meta", "\x01\x00"); ("payload", String.make 1000 '\x5a'); ("z", "") ]

(* [Container.read] hands each payload over as a reader on its window *)
let payloads =
  List.map (fun (name, r) ->
      (name, String.sub r.Wire.data r.Wire.pos (Wire.remaining r)))

let test_container_roundtrip () =
  with_store_dir (fun dir ->
      let path = Filename.concat dir "c.foc" in
      Container.write path sections;
      match Container.read path with
      | Ok got ->
          Alcotest.(check (list (pair string string)))
            "sections survive" sections (payloads got)
      | Error e -> Alcotest.failf "read: %s" e)

let prop_container_corruption =
  QCheck.Test.make ~name:"container: any byte flip or truncation => Error"
    ~count:60
    QCheck.(pair small_nat small_nat)
    (fun (off_seed, mode) ->
      with_store_dir (fun dir ->
          let path = Filename.concat dir "c.foc" in
          Container.write path sections;
          let good = read_file path in
          let n = String.length good in
          let off = off_seed mod n in
          let bad =
            if mode mod 2 = 0 then String.sub good 0 off (* truncate *)
            else begin
              let b = Bytes.of_string good in
              Bytes.set b off (Char.chr (Char.code (Bytes.get b off) lxor 0x41));
              Bytes.to_string b
            end
          in
          write_file path bad;
          match Container.read path with
          | Error _ -> true
          | Ok got ->
              (* flipping then un-flipping is impossible with xor 0x41;
                 the only acceptable Ok is the empty-prefix degenerate
                 that cannot happen here *)
              payloads got = sections && bad = good))

(* ---------------- flat artifact cores ---------------- *)

let random_graph n seed =
  let rng = Random.State.make [| n; seed |] in
  Foc.Gen.random_bounded_degree rng n 3

let prop_graph_flat =
  QCheck.Test.make ~name:"graph: of_flat (to_flat g) = g" ~count:40
    QCheck.(pair (int_range 1 60) (int_range 0 1000))
    (fun (n, seed) ->
      let g = random_graph n seed in
      Foc.Graph.equal g (Foc.Graph.of_flat (Foc.Graph.to_flat g)))

let prop_cover_flat =
  QCheck.Test.make ~name:"cover: flat round trip preserves clusters"
    ~count:30
    QCheck.(triple (int_range 1 50) (int_range 0 1000) (int_range 1 3))
    (fun (n, seed, r) ->
      let g = random_graph n seed in
      let c = Foc.Cover.make g ~r in
      let c' = Foc.Cover.of_flat (Foc.Cover.to_flat c) in
      Foc.Cover.radius_param c' = Foc.Cover.radius_param c
      && Foc.Cover.cluster_count c' = Foc.Cover.cluster_count c
      && List.for_all
           (fun i ->
             Foc.Cover.cluster c' i = Foc.Cover.cluster c i
             && Foc.Cover.centre c' i = Foc.Cover.centre c i)
           (List.init (Foc.Cover.cluster_count c) Fun.id)
      && List.for_all
           (fun v -> Foc.Cover.assigned c' v = Foc.Cover.assigned c v)
           (List.init n Fun.id))

let prop_stats_flat =
  QCheck.Test.make ~name:"stats: of_flat (to_flat s) = s" ~count:30
    QCheck.(pair (int_range 1 60) (int_range 0 1000))
    (fun (n, seed) ->
      let a = structure n seed in
      let s = Foc.Stats.collect ~buckets:16 a in
      Foc.Stats.equal s (Foc.Stats.of_flat (Foc.Stats.to_flat s)))

let test_graph_flat_rejects () =
  let g = random_graph 20 7 in
  let f = Foc.Graph.to_flat g in
  let reject name f' =
    match Foc.Graph.of_flat f' with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.failf "%s accepted" name
  in
  reject "bad offsets length"
    { f with Foc.Graph.foffsets = Array.sub f.Foc.Graph.foffsets 0 1 };
  let t = Array.copy f.Foc.Graph.ftargets in
  if Array.length t > 0 then begin
    t.(0) <- 10_000;
    reject "target out of range" { f with Foc.Graph.ftargets = t }
  end

let test_cover_flat_rejects () =
  let c = Foc.Cover.make (random_graph 30 5) ~r:1 in
  let f = Foc.Cover.to_flat c in
  let reject name f' =
    match Foc.Cover.of_flat f' with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.failf "%s accepted" name
  in
  let with_cluster i members =
    let cl = Array.copy f.Foc.Cover.fclusters in
    cl.(i) <- members;
    { f with Foc.Cover.fclusters = cl }
  in
  let v = 0 in
  let id = f.Foc.Cover.fassign.(v) in
  let own = f.Foc.Cover.fclusters.(id) in
  reject "vertex missing from its cluster"
    (with_cluster id (Array.of_list (List.filter (( <> ) v) (Array.to_list own))));
  reject "member out of range" (with_cluster id (Array.append own [| 30 |]));
  reject "negative member" (with_cluster id (Array.append [| -1 |] own));
  reject "unsorted cluster"
    (with_cluster id (Array.of_list (List.rev (Array.to_list own))));
  let assign = Array.copy f.Foc.Cover.fassign in
  assign.(v) <- Array.length f.Foc.Cover.fclusters;
  reject "assignment out of range" { f with Foc.Cover.fassign = assign }

let test_stats_flat_rejects () =
  let s = Foc.Stats.collect (structure 40 3) in
  let f = Foc.Stats.to_flat s in
  let reject name frels =
    match Foc.Stats.of_flat { f with Foc.Stats.frels } with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.failf "%s accepted" name
  in
  let with_col g =
    List.map
      (fun (name, rows, cols) -> (name, rows, Array.map g cols))
      f.Foc.Stats.frels
  in
  let swap a = let a = Array.copy a in
    if Array.length a >= 2 then begin
      let t = a.(0) in a.(0) <- a.(1); a.(1) <- t end;
    a
  in
  reject "values out of order" (with_col (fun (vs, ks) -> (swap vs, ks)));
  reject "repeated value"
    (with_col (fun (vs, ks) ->
         if Array.length vs >= 2 then begin
           let vs = Array.copy vs in
           vs.(1) <- vs.(0); (vs, ks) end
         else (vs, ks)));
  reject "non-positive count"
    (with_col (fun (vs, ks) -> (vs, Array.map (fun _ -> 0) ks)));
  reject "counts shorter than values"
    (with_col (fun (vs, ks) -> (vs, Array.sub ks 0 (max 0 (Array.length ks - 1)))))

(* ---------------- write-ahead log ---------------- *)

let wal_records k n =
  List.init k (fun i ->
      {
        Wal.insert = i mod 3 <> 2;
        rel = "E";
        tuple = [| (7 * i) mod n; (5 * i) mod n |];
      })

let test_wal_roundtrip () =
  with_store_dir (fun dir ->
      let path = Filename.concat dir "w.log" in
      let recs = wal_records 20 50 in
      let w = Wal.create path in
      List.iter
        (fun { Wal.insert; rel; tuple } -> Wal.append w ~insert ~rel ~tuple)
        recs;
      Wal.close w;
      let got, torn = Wal.replay path in
      Alcotest.(check bool) "not torn" false torn;
      Alcotest.(check int) "all records" 20 (List.length got);
      Alcotest.(check bool) "contents" true (got = recs);
      let got2, torn2 = Wal.replay (Filename.concat dir "absent.log") in
      Alcotest.(check bool) "missing file is clean" false torn2;
      Alcotest.(check int) "missing file is empty" 0 (List.length got2))

let prop_wal_torn_tail =
  QCheck.Test.make
    ~name:"wal: truncation/flip at any offset => valid prefix, no crash"
    ~count:60
    QCheck.(triple (int_range 1 25) small_nat bool)
    (fun (k, off_seed, flip) ->
      with_store_dir (fun dir ->
          let path = Filename.concat dir "w.log" in
          let recs = wal_records k 50 in
          let w = Wal.create path in
          List.iter
            (fun { Wal.insert; rel; tuple } ->
              Wal.append w ~insert ~rel ~tuple)
            recs;
          Wal.close w;
          let good = read_file path in
          let n = String.length good in
          let off = off_seed mod n in
          write_file path
            (if flip then begin
               let b = Bytes.of_string good in
               Bytes.set b off
                 (Char.chr (Char.code (Bytes.get b off) lxor 0x17));
               Bytes.to_string b
             end
             else String.sub good 0 off);
          let got, _torn = Wal.replay path in
          (* whatever survives must be a prefix of what was written *)
          List.length got <= k
          && got = List.filteri (fun i _ -> i < List.length got) recs))

(* ---------------- store save/load ---------------- *)

let prewarmed backend n seed =
  let a = structure n seed in
  let s = Foc.Session.create ~config:(config backend) a in
  Foc.Session.prewarm ~radii:[ 1 ] s;
  (a, s)

let test_store_fallback_to_older () =
  with_store_dir (fun dir ->
      let _, s = prewarmed Foc.Engine.Direct 40 3 in
      ignore (Foc.Session.save s ~dir ~version:0);
      Foc.Session.insert s "E" [| 0; 39 |];
      let newest = Foc.Session.save s ~dir ~version:1 in
      (* damage the newest snapshot: load must fall back to version 0 *)
      let good = read_file newest in
      let b = Bytes.of_string good in
      Bytes.set b (String.length good / 2)
        (Char.chr
           (Char.code (Bytes.get b (String.length good / 2)) lxor 0xff));
      write_file newest (Bytes.to_string b);
      match Store.load ~dir with
      | Ok snap -> Alcotest.(check int) "older version" 0 snap.Store.version
      | Error e -> Alcotest.failf "no fallback: %s" e)

let test_store_all_corrupt_is_error () =
  with_store_dir (fun dir ->
      let _, s = prewarmed Foc.Engine.Direct 30 4 in
      let p = Foc.Session.save s ~dir ~version:0 in
      write_file p "FOCSTORE garbage that is not a container";
      (match Store.load ~dir with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "corrupt store loaded");
      match Foc.Session.load ~dir () with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "corrupt store loaded via session")

let test_session_load_empty_dir () =
  with_store_dir (fun dir ->
      match Foc.Session.load ~dir () with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "empty dir loaded")

(* the end-to-end property behind `foc serve --store` and bench E18: for
   every back-end, any split of an update sequence into live writes
   (before save) and WAL records (after save) restores a session whose
   answers are bit-identical to a fresh engine on the fully-updated
   structure *)
let prop_save_load backend name =
  QCheck.Test.make ~name ~count:8
    QCheck.(
      quad (int_range 8 30) (int_range 0 10_000)
        (list_of_size (Gen.int_range 0 8)
           (pair bool (pair small_nat small_nat)))
        small_nat)
    (fun (n, seed, ops, cut0) ->
      with_store_dir (fun dir ->
          let ops =
            List.map (fun (ins, (u, v)) -> (ins, u mod n, v mod n)) ops
          in
          let cut = cut0 mod (List.length ops + 1) in
          let a = structure n seed in
          let s = Foc.Session.create ~config:(config backend) a in
          Foc.Session.prewarm ~radii:[ 1 ] s;
          List.iteri
            (fun i (ins, u, v) ->
              if i < cut then
                if ins then Foc.Session.insert s "E" [| u; v |]
                else Foc.Session.delete s "E" [| u; v |])
            ops;
          ignore (Foc.Session.save s ~dir ~version:cut);
          let w = Wal.append_to (Store.wal_path ~dir ~version:cut) in
          List.iteri
            (fun i (ins, u, v) ->
              if i >= cut then
                Wal.append w ~insert:ins ~rel:"E" ~tuple:[| u; v |])
            ops;
          Wal.close w;
          let l =
            match Foc.Session.load ~config:(config backend) ~dir () with
            | Ok l -> l
            | Error e -> QCheck.Test.fail_reportf "load: %s" e
          in
          let b =
            List.fold_left
              (fun acc (ins, u, v) ->
                if ins then Foc.Structure.add_tuples acc "E" [ [| u; v |] ]
                else Foc.Structure.remove_tuples acc "E" [ [| u; v |] ])
              a ops
          in
          let queries =
            [
              "exists x. #(y). E(x,y) >= 2";
              "exists x. prime(#(y). (E(x,y) | E(y,x)))";
              "#(x,y). (E(x,y) & B(y)) >= 3";
              "forall x. #(y). E(y,x) <= 3";
            ]
          in
          l.Foc.Session.wal_replayed = List.length ops - cut
          && l.Foc.Session.version = List.length ops
          && (not l.Foc.Session.wal_torn)
          && List.for_all
               (fun src ->
                 let phi = parse src in
                 Foc.Session.check l.Foc.Session.session phi
                 = fresh_check backend b phi)
               queries))

(* a session loaded after snapshot corruption must still answer correctly
   (from the older snapshot + its WAL covers nothing => just the older
   structure state) — the robustness and bit-identity properties composed *)
let test_load_after_corruption_answers () =
  with_store_dir (fun dir ->
      let a, s = prewarmed Foc.Engine.Cover 40 9 in
      ignore (Foc.Session.save s ~dir ~version:0);
      Foc.Session.insert s "E" [| 1; 38 |];
      let newest = Foc.Session.save s ~dir ~version:1 in
      write_file newest (String.make 40 '\x00');
      let l =
        match Foc.Session.load ~config:(config Foc.Engine.Cover) ~dir () with
        | Ok l -> l
        | Error e -> Alcotest.failf "load: %s" e
      in
      Alcotest.(check int) "fell back to v0" 0
        l.Foc.Session.snapshot_version;
      let phi = parse "exists x. prime(#(y). (E(x,y) | E(y,x)))" in
      Alcotest.(check bool) "answers from the older state"
        (fresh_check Foc.Engine.Cover a phi)
        (Foc.Session.check l.Foc.Session.session phi))

(* hand-built structure sections: a snapshot's relation rows are adopted
   as packed cores, so rows that are unsorted or repeated must come back
   re-normalised (binary-search membership stays right), and rows outside
   the universe or of the wrong arity must make the snapshot unloadable *)
let structure_section ~order rels =
  let w = Wire.writer () in
  Wire.put_int w (List.length rels);
  List.iter
    (fun (name, arity, _) ->
      Wire.put_string w name;
      Wire.put_int w arity)
    rels;
  Wire.put_int w order;
  List.iter
    (fun (_, _, rows) ->
      Wire.put_int w (List.length rows);
      List.iter (Array.iter (Wire.put_int w)) rows)
    rels;
  Wire.contents w

let load_hand_built structure =
  with_store_dir (fun dir ->
      let meta = Wire.writer () in
      Wire.put_int meta 0;
      Container.write
        (Store.snap_path ~dir ~version:0)
        [ ("meta", Wire.contents meta); ("structure", structure) ];
      Store.load ~dir)

let test_hostile_structure_rows () =
  let edges rows = structure_section ~order:3 [ ("E", 2, rows) ] in
  let expect_rows what payload want =
    match load_hand_built payload with
    | Error e -> Alcotest.failf "%s: rejected: %s" what e
    | Ok snap ->
        let a = snap.Store.structure in
        Alcotest.(check (list (array int)))
          what want
          (Foc.Tuple.Set.elements (Foc.Structure.rel a "E"));
        List.iter
          (fun t ->
            Alcotest.(check bool) (what ^ ": mem") true
              (Foc.Structure.mem a "E" t))
          want;
        Alcotest.(check bool) (what ^ ": absent") false
          (Foc.Structure.mem a "E" [| 1; 0 |])
  in
  let expect_error what payload =
    match load_hand_built payload with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "%s: loaded" what
  in
  expect_rows "unsorted rows re-sorted"
    (edges [ [| 2; 1 |]; [| 0; 2 |]; [| 0; 1 |] ])
    [ [| 0; 1 |]; [| 0; 2 |]; [| 2; 1 |] ];
  expect_rows "repeated rows deduplicated"
    (edges [ [| 0; 1 |]; [| 0; 1 |]; [| 2; 2 |]; [| 0; 1 |] ])
    [ [| 0; 1 |]; [| 2; 2 |] ];
  expect_error "element outside the universe" (edges [ [| 0; 3 |] ]);
  expect_error "negative element" (edges [ [| -1; 0 |] ]);
  expect_error "rows wider than the declared arity"
    (edges [ [| 0; 1; 2 |]; [| 1; 2; 0 |] ])

let () =
  Alcotest.run "persistent store"
    [
      ( "wire",
        [
          Alcotest.test_case "round trip" `Quick test_wire_roundtrip;
          Alcotest.test_case "bounds checks" `Quick test_wire_bounds;
          QCheck_alcotest.to_alcotest prop_wire_int_widths;
          Alcotest.test_case "bad int width" `Quick test_wire_bad_width;
          Alcotest.test_case "crc32 vector" `Quick test_crc32;
          QCheck_alcotest.to_alcotest prop_crc32_reference;
        ] );
      ( "container",
        [
          Alcotest.test_case "round trip" `Quick test_container_roundtrip;
          QCheck_alcotest.to_alcotest prop_container_corruption;
        ] );
      ( "flat cores",
        [
          QCheck_alcotest.to_alcotest prop_graph_flat;
          QCheck_alcotest.to_alcotest prop_cover_flat;
          QCheck_alcotest.to_alcotest prop_stats_flat;
          Alcotest.test_case "graph validation rejects" `Quick
            test_graph_flat_rejects;
          Alcotest.test_case "cover validation rejects" `Quick
            test_cover_flat_rejects;
          Alcotest.test_case "stats validation rejects" `Quick
            test_stats_flat_rejects;
        ] );
      ( "wal",
        [
          Alcotest.test_case "round trip" `Quick test_wal_roundtrip;
          QCheck_alcotest.to_alcotest prop_wal_torn_tail;
        ] );
      ( "store",
        [
          Alcotest.test_case "fallback to older snapshot" `Quick
            test_store_fallback_to_older;
          Alcotest.test_case "all-corrupt is Error" `Quick
            test_store_all_corrupt_is_error;
          Alcotest.test_case "empty dir is Error" `Quick
            test_session_load_empty_dir;
          Alcotest.test_case "corruption fallback answers" `Quick
            test_load_after_corruption_answers;
          Alcotest.test_case "hostile relation rows" `Quick
            test_hostile_structure_rows;
        ] );
      ( "session save/load",
        [
          QCheck_alcotest.to_alcotest
            (prop_save_load Foc.Engine.Direct "direct: snapshot+wal = fresh");
          QCheck_alcotest.to_alcotest
            (prop_save_load Foc.Engine.Cover "cover: snapshot+wal = fresh");
          QCheck_alcotest.to_alcotest
            (prop_save_load
               (Foc.Engine.Splitter { max_rounds = 4; small = 32 })
               "splitter: snapshot+wal = fresh");
          QCheck_alcotest.to_alcotest
            (prop_save_load Foc.Engine.Hanf "hanf: snapshot+wal = fresh");
        ] );
    ]
