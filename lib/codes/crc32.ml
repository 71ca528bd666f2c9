(* Table-driven CRC-32 with the reflected IEEE polynomial 0xEDB88320,
   computed in native ints (the 32-bit register fits an OCaml int). *)

let table =
  lazy
    (Array.init 256 (fun n ->
         let c = ref n in
         for _ = 0 to 7 do
           c := if !c land 1 <> 0 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
         done;
         !c))

let update crc b pos len =
  let table = Lazy.force table in
  let crc = ref crc in
  for i = pos to pos + len - 1 do
    crc := table.((!crc lxor Char.code (Bytes.unsafe_get b i)) land 0xFF) lxor (!crc lsr 8)
  done;
  !crc

let finish crc = Int32.of_int (crc lxor 0xFFFFFFFF)

let bytes b pos len =
  if pos < 0 || len < 0 || pos + len > Bytes.length b then invalid_arg "Crc32.bytes";
  finish (update 0xFFFFFFFF b pos len)

let strings parts =
  finish
    (List.fold_left
       (fun crc s -> update crc (Bytes.unsafe_of_string s) 0 (String.length s))
       0xFFFFFFFF parts)

let string s = strings [ s ]
