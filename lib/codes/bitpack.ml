type writer = { buf : Buffer.t; mutable acc : int; mutable used : int; mutable total : int }

let writer () = { buf = Buffer.create 16; acc = 0; used = 0; total = 0 }

let flush_byte w =
  Buffer.add_char w.buf (Char.chr (w.acc land 0xFF));
  w.acc <- 0;
  w.used <- 0

let write_bit w b =
  w.acc <- (w.acc lsl 1) lor (if b then 1 else 0);
  w.used <- w.used + 1;
  w.total <- w.total + 1;
  if w.used = 8 then flush_byte w

let write_bits w v n =
  if n < 0 || n > 62 then invalid_arg "Bitpack.write_bits: width out of range";
  if n < 62 && v lsr n <> 0 then invalid_arg "Bitpack.write_bits: value does not fit";
  if v < 0 then invalid_arg "Bitpack.write_bits: negative value";
  for i = n - 1 downto 0 do
    write_bit w ((v lsr i) land 1 = 1)
  done

let write_bitstr w b =
  for i = 0 to Bitstr.length b - 1 do
    write_bit w (Bitstr.get b i)
  done

let bit_length w = w.total

let contents w =
  let pending = w.used in
  if pending = 0 then Buffer.contents w.buf
  else begin
    (* Zero-pad the final partial byte without disturbing the writer. *)
    let tail = Char.chr ((w.acc lsl (8 - pending)) land 0xFF) in
    Buffer.contents w.buf ^ String.make 1 tail
  end

type reader = { data : string; total_bits : int; mutable pos : int }

let reader data = { data; total_bits = 8 * String.length data; pos = 0 }

let reader_at data pos =
  let total_bits = 8 * String.length data in
  if pos < 0 || pos > total_bits then invalid_arg "Bitpack.reader_at: position out of range";
  { data; total_bits; pos }

let shares_prefix a b n =
  let whole = n / 8 and rest = n mod 8 in
  let rec bytes_agree i = i >= whole || (a.[i] = b.[i] && bytes_agree (i + 1)) in
  n >= 0
  && 8 * String.length a >= n
  && 8 * String.length b >= n
  && bytes_agree 0
  && (rest = 0
     ||
     let mask = 0xFF lxor (0xFF lsr rest) in
     Char.code a.[whole] land mask = Char.code b.[whole] land mask)

let read_bit r =
  if r.pos >= r.total_bits then invalid_arg "Bitpack.read_bit: past the end";
  let byte = Char.code r.data.[r.pos / 8] in
  let bit = byte land (0x80 lsr (r.pos mod 8)) <> 0 in
  r.pos <- r.pos + 1;
  bit

let read_bits r n =
  if n < 0 || n > 62 then invalid_arg "Bitpack.read_bits: width out of range";
  let v = ref 0 in
  for _ = 1 to n do
    v := (!v lsl 1) lor (if read_bit r then 1 else 0)
  done;
  !v

let read_bitstr r n =
  let b = ref Bitstr.empty in
  for _ = 1 to n do
    b := Bitstr.snoc !b (read_bit r)
  done;
  !b

let bits_left r = r.total_bits - r.pos
let position r = r.pos

let bit_width v =
  let rec go n v = if v = 0 then n else go (n + 1) (v lsr 1) in
  go 0 v

let gamma_bits v =
  if v < 1 then invalid_arg "Bitpack.gamma_bits: value must be positive";
  (2 * bit_width v) - 1

let write_gamma w v =
  if v < 1 then invalid_arg "Bitpack.write_gamma: value must be positive";
  let width = bit_width v in
  for _ = 1 to width - 1 do
    write_bit w false
  done;
  write_bits w v width

let read_gamma r =
  let rec zeros n = if read_bit r then n else zeros (n + 1) in
  let leading = zeros 0 in
  (* the leading 1 already consumed is the top bit of the value *)
  let rest = read_bits r leading in
  (1 lsl leading) lor rest
