open Repro_xml

exception Corrupt of string

let corrupt fmt = Printf.ksprintf (fun s -> raise (Corrupt s)) fmt

let magic = "XLS2"

(* The fewest bytes a stored node can take: tag, child count, label bit
   count, shared-prefix length and suffix length, one byte each. *)
let min_node_bytes = 5

(* ---- writing ------------------------------------------------------ *)

(* Unsigned LEB128: seven payload bits per byte, high bit set on all but
   the last. *)
let rec put_uint buf v =
  if v < 0x80 then Buffer.add_char buf (Char.unsafe_chr v)
  else begin
    Buffer.add_char buf (Char.unsafe_chr (v land 0x7F lor 0x80));
    put_uint buf (v lsr 7)
  end

let put_string buf s =
  put_uint buf (String.length s);
  Buffer.add_string buf s

let common_prefix a b =
  let n = min (String.length a) (String.length b) in
  let i = ref 0 in
  while !i < n && String.unsafe_get a !i = String.unsafe_get b !i do
    incr i
  done;
  !i

(* ---- saving ------------------------------------------------------ *)

let save session =
  let doc = session.Core.Session.doc in
  (* One preorder pass writes the node records and collects the name
     dictionary in order of first appearance. *)
  let index = Hashtbl.create 16 and names = ref [] in
  let name_index name =
    match Hashtbl.find_opt index name with
    | Some i -> i
    | None ->
      let i = Hashtbl.length index in
      Hashtbl.add index name i;
      names := name :: !names;
      i
  in
  let nodes = Buffer.create ((16 * Tree.size doc) + 64) in
  let prev = ref "" in
  let rec node (n : Tree.node) =
    let kind = match n.kind with Tree.Element -> 0 | Tree.Attribute -> 2 in
    let has_value = if n.value = None then 0 else 1 in
    put_uint nodes ((name_index n.name lsl 2) lor kind lor has_value);
    put_uint nodes (List.length n.children);
    Option.iter (put_string nodes) n.value;
    let bytes, bits = session.Core.Session.label_encoded n in
    let shared = common_prefix !prev bytes in
    put_uint nodes bits;
    put_uint nodes shared;
    put_uint nodes (String.length bytes - shared);
    Buffer.add_substring nodes bytes shared (String.length bytes - shared);
    prev := bytes;
    List.iter node n.children
  in
  node (Tree.root doc);
  let header = Buffer.create 256 in
  Buffer.add_string header magic;
  put_string header session.Core.Session.scheme_name;
  put_uint header (Tree.size doc);
  put_uint header (Hashtbl.length index);
  List.iter (put_string header) (List.rev !names);
  (* the output is allocated once, at its exact size *)
  let h = Buffer.length header and n = Buffer.length nodes in
  let out = Bytes.create (h + n + 4) in
  Buffer.blit header 0 out 0 h;
  Buffer.blit nodes 0 out h n;
  Bytes.set_int32_le out (h + n) (Repro_codes.Crc32.bytes out 0 (h + n));
  Bytes.unsafe_to_string out

let save_file ?(io = Repro_io.Io.real) session path =
  let f = io.Repro_io.Io.open_file path Repro_io.Io.Trunc in
  Fun.protect
    ~finally:(fun () -> f.Repro_io.Io.f_close ())
    (fun () -> f.Repro_io.Io.f_write (save session))

(* ---- reading ------------------------------------------------------ *)

type cursor = { data : string; mutable pos : int; limit : int; mutable section : string }
(** Reads stop at [limit], where the checksum starts. [section] names what
    is being read, so truncation errors can say which part of the store
    the data ran out under. *)

let truncated c =
  corrupt "truncated store while reading the %s (byte %d of %d)" c.section c.pos c.limit

let need c n = if n > c.limit - c.pos then truncated c

let get_byte c =
  need c 1;
  let v = Char.code (String.unsafe_get c.data c.pos) in
  c.pos <- c.pos + 1;
  v

let get_uint c =
  let rec go shift acc =
    let b = get_byte c in
    (* past 62 payload bits the value no longer fits a non-negative int *)
    if shift >= 56 && b > 0x3F then
      corrupt "integer too large in the %s (byte %d)" c.section c.pos;
    let acc = acc lor ((b land 0x7F) lsl shift) in
    if b < 0x80 then acc else go (shift + 7) acc
  in
  go 0 0

let get_string c =
  let n = get_uint c in
  need c n;
  let s = String.sub c.data c.pos n in
  c.pos <- c.pos + n;
  s

let is_truncation msg = String.starts_with ~prefix:"truncated" msg

let read_scheme c =
  c.section <- "scheme name";
  get_string c

(* The header after the scheme name and every node record. Every count,
   index and length is checked against what the data can hold before
   anything is allocated for it. Returns the root fragment and the labels
   in document order. *)
let read_tree c =
  c.section <- "node count";
  let count = get_uint c in
  if count = 0 then corrupt "store holds no nodes";
  if count > (c.limit - c.pos) / min_node_bytes then truncated c;
  c.section <- "name dictionary";
  let n_names = get_uint c in
  if n_names > count then corrupt "name dictionary holds %d names for %d nodes" n_names count;
  need c n_names;
  let names = Array.make n_names "" in
  for i = 0 to n_names - 1 do
    names.(i) <- get_string c
  done;
  let labels = Array.make count ("", 0) in
  let read = ref 0 (* nodes read so far *)
  and pending = ref 0 (* nodes promised by child counts, not read yet *)
  and prev = ref "" in
  let rec node () =
    let i = !read in
    incr read;
    c.section <- "node tag";
    let tag = get_uint c in
    let name_index = tag lsr 2 in
    if name_index >= n_names then
      corrupt "name index %d outside the %d-name dictionary" name_index n_names;
    let kind = if tag land 2 = 0 then Tree.Element else Tree.Attribute in
    if i = 0 && kind = Tree.Attribute then corrupt "first node is not an element";
    c.section <- "child count";
    let kids = get_uint c in
    if kids > count - !read - !pending then
      corrupt "child count %d exceeds the %d nodes remaining" kids (count - !read - !pending);
    if kind = Tree.Attribute && kids > 0 then corrupt "attribute with children";
    pending := !pending + kids;
    let value =
      if tag land 1 = 0 then None
      else begin
        c.section <- "node value";
        Some (get_string c)
      end
    in
    c.section <- "node label";
    let bits = get_uint c in
    let shared = get_uint c in
    if shared > String.length !prev then
      corrupt "label shares %d bytes with a %d-byte previous label" shared
        (String.length !prev);
    let suffix = get_uint c in
    need c suffix;
    let label = Bytes.create (shared + suffix) in
    Bytes.blit_string !prev 0 label 0 shared;
    Bytes.blit_string c.data c.pos label shared suffix;
    c.pos <- c.pos + suffix;
    let label = Bytes.unsafe_to_string label in
    prev := label;
    labels.(i) <- (label, bits);
    let children = ref [] in
    for _ = 1 to kids do
      decr pending;
      children := node () :: !children
    done;
    let name = names.(name_index) in
    match kind with
    | Tree.Attribute -> Tree.attr name (Option.value value ~default:"")
    | Tree.Element -> Tree.elt ?value name (List.rev !children)
  in
  let root = node () in
  if !read <> count then corrupt "node count mismatch: %d declared, %d stored" count !read;
  if c.pos <> c.limit then corrupt "trailing bytes after the node table";
  (root, labels)

(* ---- envelope ----------------------------------------------------- *)

let check_envelope data =
  let len = String.length data in
  if len < String.length magic + 4 then
    corrupt "truncated store: %d bytes is shorter than the header and checksum" len;
  if String.sub data 0 (String.length magic) <> magic then
    corrupt "bad magic number in the header";
  let body () = { data; pos = String.length magic; limit = len - 4; section = "scheme name" } in
  let stored_crc = String.get_int32_le data (len - 4) in
  let actual = Repro_codes.Crc32.bytes (Bytes.unsafe_of_string data) 0 (len - 4) in
  if stored_crc <> actual then begin
    (* A store cut off mid-write fails its checksum too, but "truncated
       while reading the node label" is a better diagnosis than a bare
       mismatch: probe-parse the body and prefer the truncation error when
       that is what the probe hits. *)
    (match
       let c = body () in
       ignore (read_scheme c);
       read_tree c
     with
    | _ -> ()
    | exception Corrupt msg when is_truncation msg -> raise (Corrupt msg)
    | exception Corrupt _ -> ());
    corrupt "checksum mismatch over the store body (stored %08lx, computed %08lx)" stored_crc
      actual
  end;
  body ()

let scheme_of data = read_scheme (check_envelope data)

let load ?scheme data =
  let c = check_envelope data in
  let scheme_name = read_scheme c in
  let pack =
    match scheme with
    | Some pack ->
      if Core.Scheme.name pack <> scheme_name then
        corrupt "store was written by %S, not %S" scheme_name (Core.Scheme.name pack);
      pack
    | None -> (
      match Repro_schemes.Registry.find scheme_name with
      | Some pack -> pack
      | None -> corrupt "unknown scheme %S" scheme_name)
  in
  let root, labels = read_tree c in
  let doc = Tree.create root in
  (* a fresh document numbers its nodes in document order *)
  let lookup (n : Tree.node) = labels.(n.id) in
  match Core.Session.restore pack doc lookup with
  | session -> session
  | exception Invalid_argument msg -> corrupt "label decoding failed: %s" msg

let load_file ?(io = Repro_io.Io.real) ?scheme path =
  load ?scheme (io.Repro_io.Io.read_file path)
