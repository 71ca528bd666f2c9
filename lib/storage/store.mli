(** A single-file store for a labelled document.

    Persistent labels are only meaningful if they survive a restart: this
    layer serialises a session — the tree (names, values, structure) and
    every node's label in the scheme's own binary layout — and restores it
    without relabelling a single node. The §5.2 version-control scenario
    builds on exactly this guarantee.

    Format XLS2. Every integer is an unsigned LEB128 varint (seven bits
    per byte, high bit set on all but the last), so no field has a width
    limit; only the checksum is fixed-width.
    {v
    magic    "XLS2"
    scheme   length + name bytes
    count    number of nodes
    names    dictionary size, then each distinct element or attribute
             name once (length + bytes), in order of first appearance
    nodes    per node in document order:
               tag = name index * 4 + kind * 2 + value flag
                     (kind 0 element, 1 attribute)
               child count — the children follow, recursively
               value length + bytes, when the value flag is set
               label: bit count, bytes shared with the previous node's
                      label, suffix length + suffix bytes
    crc      u32 little-endian CRC-32 of everything above
    v}

    The label is the scheme's own encoded bytes, reassembled exactly, so
    every scheme round-trips. On an 8,000-node generated document a QED
    or ORDPATH store takes 13.7-13.9 bytes per node.

    The decoder checks every count, index and length against what the
    remaining data can hold before allocating for it: a child count above
    the nodes still to come, a name index outside the dictionary or a
    shared prefix longer than the previous label raises {!Corrupt}, and a
    truncated store names the section it ran out in. *)

exception Corrupt of string
(** Raised on a bad magic number, checksum mismatch, truncation, or a
    scheme/label decoding failure. *)

val save : Core.Session.t -> string
(** The serialised bytes of the session's document and labels, written in
    one preorder pass. Never raises: names, values and labels of any
    length fit the format. *)

val save_file : ?io:Repro_io.Io.t -> Core.Session.t -> string -> unit
(** Write through the IO seam ([?io], default the hardened Unix backend).
    IO failures raise {!Repro_io.Io.Io_error} naming the file. *)

val scheme_of : string -> string
(** The scheme name recorded in a store, without loading the body. *)

val load : ?scheme:Core.Scheme.packed -> string -> Core.Session.t
(** Rebuilds the document and rebinds the recorded scheme (or [scheme],
    which must match the recorded name) with the stored labels — no node
    is relabelled. Raises {!Corrupt}. *)

val load_file : ?io:Repro_io.Io.t -> ?scheme:Core.Scheme.packed -> string -> Core.Session.t
(** Like {!load} over [io.read_file]: a missing or unreadable file raises
    {!Repro_io.Io.Io_error} (never a raw [Sys_error]). *)
