(** A bit-level writer/reader for the binary label codecs.

    The storage claims of §4 are claims about concrete bit layouts — QED's
    two-bit digits with a 00 separator, ORDPATH's prefix-free component
    classes, CDBS's stored length field. The codecs in {!Repro_schemes}
    realise those layouts on top of this packer, and the test suite checks
    that each scheme's abstract [storage_bits] accounting agrees with the
    bytes actually produced. *)

type writer

val writer : unit -> writer
val write_bit : writer -> bool -> unit
val write_bits : writer -> int -> int -> unit
(** [write_bits w v n] writes the low [n] bits of [v], most significant
    first. Raises [Invalid_argument] if [n < 0], [n > 62] or [v] does not
    fit. *)

val write_bitstr : writer -> Bitstr.t -> unit
val bit_length : writer -> int
val contents : writer -> string
(** The packed bytes; the final byte is zero-padded. *)

type reader

val reader : string -> reader

val reader_at : string -> int -> reader
(** [reader_at data pos] reads [data] from bit [pos] on, so a label that
    extends a known prefix can be decoded from where the prefix ends.
    Raises [Invalid_argument] if [pos] lies outside [data]. *)

val shares_prefix : string -> string -> int -> bool
(** [shares_prefix a b n]: the first [n] bits of [a] and [b] agree (false
    if either holds fewer than [n] bits). *)

val read_bit : reader -> bool
val read_bits : reader -> int -> int
(** Raises [Invalid_argument] when reading past the end. *)

val read_bitstr : reader -> int -> Bitstr.t
val bits_left : reader -> int
val position : reader -> int

(** {1 Elias gamma}

    Self-delimiting encoding of positive integers: ⌊log2 v⌋ zeros, then the
    binary form of [v]. Used for the length bookkeeping of codecs that must
    avoid any fixed-width field (CDQS). *)

val write_gamma : writer -> int -> unit
(** Raises [Invalid_argument] on values < 1. *)

val read_gamma : reader -> int

val gamma_bits : int -> int
(** Bits {!write_gamma} would produce. *)
