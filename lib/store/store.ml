(* Versioned snapshots of a prepared structure and its derived artifacts.

   A snapshot is one container file (see Container) named
   [snap-<version>.foc] inside the store directory, holding one section
   per artifact family:

     meta       structure version (the server's write counter at save)
     structure  signature, order, relations (exact tuple sets)
     gaifman    the CSR Gaifman graph (optional)
     covers     (radius, cover flat core) list (optional)
     hanf       (type radius, class partition) list (optional)
     stats      exact planning statistics (optional)

   Next to each snapshot lives its WAL, [wal-<version>.log] (see Wal):
   writes accepted after the snapshot was taken. Loading picks the
   NEWEST snapshot that decodes and checksums cleanly — a corrupt or
   torn newest file silently falls back to the previous one, and a store
   with no valid snapshot at all reports [Error] so the caller can
   rebuild from the source structure. Saving a snapshot at version [v]
   is the compaction point: older snapshot/WAL pairs are pruned (one
   predecessor is kept as the fallback the loader needs).

   Everything decoded is re-validated by the [of_flat] pairs of the
   artifact modules before use; a checksummed-but-inconsistent file
   degrades to [Error], never undefined behaviour. *)

module Structure = Foc_data.Structure
module Signature = Foc_data.Signature
module Tuple = Foc_data.Tuple
module Graph = Foc_graph.Graph
module Cover = Foc_graph.Cover
module Stats = Foc_stats.Stats

type snapshot = {
  version : int;  (** structure version (writes applied) at save time *)
  structure : Structure.t;
  graph : Graph.t option;  (** the memoised Gaifman graph, if built *)
  covers : (int * Cover.t) list;  (** keyed by cover radius [rc] *)
  hanfs : (int * (string * int list) list) list;  (** keyed by [tr] *)
  stats : Stats.t option;
}

(* ---------------- section codecs ---------------- *)

let enc_meta version =
  let w = Wire.writer () in
  Wire.put_int w version;
  Wire.contents w

let dec_meta r =
  let v = Wire.get_int r in
  if v < 0 then Wire.corrupt "negative version";
  v

let enc_structure a =
  let w = Wire.writer () in
  let sign = Signature.to_list (Structure.signature a) in
  Wire.put_int w (List.length sign);
  List.iter
    (fun (name, arity) ->
      Wire.put_string w name;
      Wire.put_int w arity)
    sign;
  Wire.put_int w (Structure.order a);
  List.iter
    (fun (name, _) ->
      let { Tuple.Set.width; nrows; data } = Structure.rel a name in
      Wire.put_int w nrows;
      for i = 0 to (nrows * width) - 1 do
        Wire.put_int w data.(i)
      done)
    sign;
  Wire.contents w

let dec_structure r =
  let nsym = Wire.get_len r ~per:16 in
  let sign_list =
    List.init nsym (fun _ ->
        let name = Wire.get_string r in
        let arity = Wire.get_int r in
        if arity < 0 then Wire.corrupt "negative arity for %S" name;
        (name, arity))
  in
  let order = Wire.get_int r in
  if order < 0 then Wire.corrupt "negative order";
  let rels =
    List.map
      (fun (name, arity) ->
        (* per = 0 for arity 0: the true relation's empty row has no bytes *)
        let count = Wire.get_len r ~per:(8 * arity) in
        let data = Array.init (count * arity) (fun _ -> Wire.get_int r) in
        (* unsorted or repeated rows are re-normalised, never adopted as
           they are: binary search over them would answer [mem] wrongly *)
        (name, Tuple.Set.of_dense arity data count))
      sign_list
  in
  Wire.expect_end r;
  (* Structure.of_rels re-validates arities and universe bounds *)
  Structure.of_rels (Signature.of_list sign_list) ~order rels

let enc_graph g =
  let f = Graph.to_flat g in
  let w = Wire.writer () in
  Wire.put_int w f.Graph.fn;
  Wire.put_int_array w f.Graph.foffsets;
  Wire.put_int_array w f.Graph.ftargets;
  Wire.contents w

let dec_graph r =
  let fn = Wire.get_int r in
  let foffsets = Wire.get_int_array r in
  let ftargets = Wire.get_int_array r in
  Wire.expect_end r;
  Graph.of_flat { Graph.fn; foffsets; ftargets }

let enc_covers covers =
  let w = Wire.writer () in
  Wire.put_int w (List.length covers);
  List.iter
    (fun (rc, c) ->
      let f = Cover.to_flat c in
      (* the clusters as one CSR pair: offsets, then concatenated members *)
      let offsets = Array.make (Array.length f.Cover.fclusters + 1) 0 in
      Array.iteri
        (fun i c -> offsets.(i + 1) <- offsets.(i) + Array.length c)
        f.Cover.fclusters;
      Wire.put_int w rc;
      Wire.put_int w f.Cover.fr;
      Wire.put_int_array w offsets;
      Wire.put_int_array w (Array.concat (Array.to_list f.Cover.fclusters));
      Wire.put_int_array w f.Cover.fassign;
      Wire.put_int_array w f.Cover.fcentres)
    covers;
  Wire.contents w

let dec_covers r =
  let n = Wire.get_len r ~per:8 in
  let covers =
    List.init n (fun _ ->
        let rc = Wire.get_int r in
        let fr = Wire.get_int r in
        let offsets = Wire.get_int_array r in
        let members = Wire.get_int_array r in
        let k = Array.length offsets - 1 in
        if k < 0 || offsets.(0) <> 0 || offsets.(k) <> Array.length members
        then Wire.corrupt "cover offsets do not span the members";
        for i = 0 to k - 1 do
          if offsets.(i + 1) < offsets.(i) then
            Wire.corrupt "cover offsets decrease at %d" i
        done;
        let fclusters =
          Array.init k (fun i ->
              Array.sub members offsets.(i) (offsets.(i + 1) - offsets.(i)))
        in
        let fassign = Wire.get_int_array r in
        let fcentres = Wire.get_int_array r in
        (rc, Cover.of_flat { Cover.fr; fclusters; fassign; fcentres }))
  in
  Wire.expect_end r;
  covers

let enc_hanfs hanfs =
  let w = Wire.writer () in
  Wire.put_int w (List.length hanfs);
  List.iter
    (fun (tr, classes) ->
      Wire.put_int w tr;
      Wire.put_int w (List.length classes);
      List.iter
        (fun (key, members) ->
          Wire.put_string w key;
          Wire.put_int_list w members)
        classes)
    hanfs;
  Wire.contents w

let dec_hanfs r =
  let n = Wire.get_len r ~per:8 in
  let hanfs =
    List.init n (fun _ ->
        let tr = Wire.get_int r in
        let nc = Wire.get_len r ~per:8 in
        let classes =
          List.init nc (fun _ ->
              let key = Wire.get_string r in
              let members = Wire.get_int_list r in
              (key, members))
        in
        (tr, classes))
  in
  Wire.expect_end r;
  hanfs

let enc_stats s =
  let f = Stats.to_flat s in
  let w = Wire.writer () in
  Wire.put_int w f.Stats.fbuckets;
  Wire.put_int w (List.length f.Stats.frels);
  List.iter
    (fun (name, rows, cols) ->
      Wire.put_string w name;
      Wire.put_int w rows;
      Wire.put_int w (Array.length cols);
      Array.iter
        (fun (vs, ks) ->
          Wire.put_int_array w vs;
          Wire.put_int_array w ks)
        cols)
    f.Stats.frels;
  Wire.contents w

let dec_stats r =
  let fbuckets = Wire.get_int r in
  let nrels = Wire.get_len r ~per:8 in
  let frels =
    List.init nrels (fun _ ->
        let name = Wire.get_string r in
        let rows = Wire.get_int r in
        let ncols = Wire.get_len r ~per:8 in
        let cols =
          Array.init ncols (fun _ ->
              let vs = Wire.get_int_array r in
              let ks = Wire.get_int_array r in
              (vs, ks))
        in
        (name, rows, cols))
  in
  Wire.expect_end r;
  Stats.of_flat { Stats.fbuckets; frels }

(* ---------------- directory layout ---------------- *)

let snap_name version = Printf.sprintf "snap-%010d.foc" version
let wal_name version = Printf.sprintf "wal-%010d.log" version
let snap_path ~dir ~version = Filename.concat dir (snap_name version)
let wal_path ~dir ~version = Filename.concat dir (wal_name version)

let ensure_dir dir =
  if not (Sys.file_exists dir) then
    try Sys.mkdir dir 0o755 with Sys_error _ -> ()

let parse_name ~prefix ~suffix name =
  if
    String.length name > String.length prefix + String.length suffix
    && String.starts_with ~prefix name
    && String.ends_with ~suffix name
  then
    let digits =
      String.sub name (String.length prefix)
        (String.length name - String.length prefix - String.length suffix)
    in
    int_of_string_opt digits
  else None

(* snapshot versions present in [dir], newest first *)
let list_snapshots dir =
  match Sys.readdir dir with
  | exception Sys_error _ -> []
  | names ->
      Array.to_list names
      |> List.filter_map (parse_name ~prefix:"snap-" ~suffix:".foc")
      |> List.sort (fun a b -> Int.compare b a)

(* ---------------- save / load ---------------- *)

let encode_snapshot s =
  let opt name enc = function None -> [] | Some v -> [ (name, enc v) ] in
  let nonempty name enc = function [] -> [] | l -> [ (name, enc l) ] in
  [ ("meta", enc_meta s.version);
    ("structure", enc_structure s.structure) ]
  @ opt "gaifman" enc_graph s.graph
  @ nonempty "covers" enc_covers s.covers
  @ nonempty "hanf" enc_hanfs s.hanfs
  @ opt "stats" enc_stats s.stats

let decode_snapshot sections =
  let find name = List.assoc_opt name sections in
  let require name =
    match find name with
    | Some p -> p
    | None -> Wire.corrupt "missing section %S" name
  in
  let version = dec_meta (require "meta") in
  let structure = dec_structure (require "structure") in
  let graph = Option.map dec_graph (find "gaifman") in
  let covers =
    match find "covers" with Some p -> dec_covers p | None -> []
  in
  let hanfs = match find "hanf" with Some p -> dec_hanfs p | None -> [] in
  let stats = Option.map dec_stats (find "stats") in
  (match graph with
  | Some g when Graph.order g <> Structure.order structure ->
      Wire.corrupt "gaifman order %d <> structure order %d" (Graph.order g)
        (Structure.order structure)
  | _ -> ());
  { version; structure; graph; covers; hanfs; stats }

(* prune everything older than the [keep] newest snapshots (and any WAL
   whose snapshot is gone) — the compaction step of [save] *)
let prune ~dir ~keep =
  let snaps = list_snapshots dir in
  let kept, dropped =
    List.filteri (fun i _ -> i < keep) snaps,
    List.filteri (fun i _ -> i >= keep) snaps
  in
  List.iter
    (fun v ->
      List.iter
        (fun p -> try Sys.remove p with Sys_error _ -> ())
        [ snap_path ~dir ~version:v; wal_path ~dir ~version:v ])
    dropped;
  (* stray WALs with no snapshot of their own version *)
  (match Sys.readdir dir with
  | exception Sys_error _ -> ()
  | names ->
      Array.iter
        (fun name ->
          match parse_name ~prefix:"wal-" ~suffix:".log" name with
          | Some v when not (List.mem v kept) ->
              (try Sys.remove (Filename.concat dir name)
               with Sys_error _ -> ())
          | _ -> ())
        names)

let save ?(keep = 2) ~dir s =
  ensure_dir dir;
  let path = snap_path ~dir ~version:s.version in
  Container.write path (encode_snapshot s);
  prune ~dir ~keep;
  path

let load_snapshot path =
  match Container.read path with
  | Error e -> Error e
  | Ok sections -> (
      match decode_snapshot sections with
      | s -> Ok s
      | exception Wire.Corrupt e -> Error e
      | exception Invalid_argument e -> Error e)

(* newest snapshot that decodes and validates; tries older ones on
   failure and reports every reason when none survives *)
let load ~dir =
  match list_snapshots dir with
  | [] -> Error (Printf.sprintf "no snapshot found in %s" dir)
  | versions ->
      let rec go errs = function
        | [] ->
            Error
              (String.concat "; "
                 (List.rev_map
                    (fun (v, e) -> Printf.sprintf "%s: %s" (snap_name v) e)
                    errs))
        | v :: rest -> (
            match load_snapshot (snap_path ~dir ~version:v) with
            | Ok s -> Ok s
            | Error e -> go ((v, e) :: errs) rest)
      in
      go [] versions

(* ---------------- info ---------------- *)

let describe dir =
  let buf = Buffer.create 256 in
  let pf fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  pf "store: %s\n" dir;
  (match list_snapshots dir with
  | [] -> pf "no snapshots\n"
  | versions ->
      List.iter
        (fun v ->
          let path = snap_path ~dir ~version:v in
          pf "snapshot %s" (snap_name v);
          (match Container.table path with
          | Error e -> pf " — unreadable: %s\n" e
          | Ok table ->
              let valid = List.for_all (fun (_, _, ok) -> ok) table in
              pf " (%s)\n" (if valid then "valid" else "CORRUPT");
              List.iter
                (fun (name, len, ok) ->
                  pf "  section %-10s %10d bytes  crc %s\n" name len
                    (if ok then "ok" else "MISMATCH"))
                table);
          let wal = wal_path ~dir ~version:v in
          if Sys.file_exists wal then begin
            let records, torn = Wal.replay wal in
            pf "  wal %s: %d records%s\n" (wal_name v)
              (List.length records)
              (if torn then ", torn tail discarded" else "")
          end)
        versions);
  Buffer.contents buf
