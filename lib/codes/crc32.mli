(** CRC-32 (IEEE 802.3 polynomial), for the storage layer's corruption
    checks. *)

val string : string -> int32
(** Checksum of a whole string. *)

val strings : string list -> int32
(** Checksum of the concatenation, without concatenating. *)

val bytes : Bytes.t -> int -> int -> int32
(** [bytes b pos len] is the checksum of [len] bytes of [b] from [pos],
    without copying them out. Raises [Invalid_argument] on a range outside
    [b]. *)
