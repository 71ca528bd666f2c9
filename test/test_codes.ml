(* Unit and property tests for the repro_codes substrate. *)

open Repro_codes

let check = Alcotest.check
let qcheck = QCheck_alcotest.to_alcotest

(* ------------------------------------------------------------------ *)
(* Bitstr                                                              *)
(* ------------------------------------------------------------------ *)

let bit_string_gen =
  QCheck.Gen.(map (fun l -> String.concat "" (List.map (fun b -> if b then "1" else "0") l))
      (list_size (int_bound 24) bool))

let arb_bits =
  QCheck.make ~print:(fun s -> s) bit_string_gen

let bitstr_roundtrip =
  QCheck.Test.make ~name:"Bitstr.to_string (of_string s) = s" ~count:500 arb_bits (fun s ->
      Bitstr.to_string (Bitstr.of_string s) = s)

let bitstr_order_matches_strings =
  QCheck.Test.make ~name:"Bitstr.compare agrees with String.compare on bit text" ~count:500
    (QCheck.pair arb_bits arb_bits) (fun (a, b) ->
      let c1 = Bitstr.compare (Bitstr.of_string a) (Bitstr.of_string b) in
      let c2 = String.compare a b in
      Stdlib.compare c1 0 = Stdlib.compare c2 0)

let bitstr_concat_assoc =
  QCheck.Test.make ~name:"Bitstr.concat is associative" ~count:300
    (QCheck.triple arb_bits arb_bits arb_bits) (fun (a, b, c) ->
      let x = Bitstr.of_string a and y = Bitstr.of_string b and z = Bitstr.of_string c in
      Bitstr.equal (Bitstr.concat (Bitstr.concat x y) z) (Bitstr.concat x (Bitstr.concat y z)))

let bitstr_prefix_order =
  QCheck.Test.make ~name:"a proper prefix sorts before its extension" ~count:300
    (QCheck.pair arb_bits (QCheck.map (fun s -> if s = "" then "1" else s) arb_bits))
    (fun (p, ext) ->
      let a = Bitstr.of_string p and b = Bitstr.of_string (p ^ ext) in
      Bitstr.compare a b < 0 && Bitstr.is_strict_prefix a b)

let bitstr_int_roundtrip =
  QCheck.Test.make ~name:"Bitstr.of_int_fixed/to_int roundtrip" ~count:300
    QCheck.(pair (int_bound 4095) (int_range 12 20))
    (fun (v, w) -> Bitstr.to_int (Bitstr.of_int_fixed v w) = v)

let bitstr_units () =
  check Alcotest.int "empty length" 0 (Bitstr.length Bitstr.empty);
  check Alcotest.string "snoc" "011" Bitstr.(to_string (snoc (snoc (snoc empty false) true) true));
  check Alcotest.string "drop_last" "01" Bitstr.(to_string (drop_last (of_string "011")));
  check Alcotest.bool "last" true (Bitstr.last (Bitstr.of_string "01"));
  check Alcotest.bool "is_prefix yes" true
    (Bitstr.is_prefix (Bitstr.of_string "010") (Bitstr.of_string "0101"));
  check Alcotest.bool "is_prefix no" false
    (Bitstr.is_prefix (Bitstr.of_string "011") (Bitstr.of_string "0101"));
  Alcotest.check_raises "of_string rejects junk" (Invalid_argument
    "Bitstr.of_string: expected only '0' and '1'") (fun () -> ignore (Bitstr.of_string "01x"));
  Alcotest.check_raises "of_int_fixed rejects overflow"
    (Invalid_argument "Bitstr.of_int_fixed: value does not fit") (fun () ->
      ignore (Bitstr.of_int_fixed 16 4))

(* ------------------------------------------------------------------ *)
(* Quat                                                                *)
(* ------------------------------------------------------------------ *)

let quat_digit_gen = QCheck.Gen.(map (fun l ->
    String.concat "" (List.map string_of_int l)) (list_size (int_bound 16) (int_range 1 3)))

let arb_quat = QCheck.make ~print:Fun.id quat_digit_gen

let quat_roundtrip =
  QCheck.Test.make ~name:"Quat.to_string (of_string s) = s" ~count:500 arb_quat (fun s ->
      Quat.to_string (Quat.of_string s) = s)

let quat_order =
  QCheck.Test.make ~name:"Quat.compare is prefix-first lexicographic" ~count:500
    (QCheck.pair arb_quat arb_quat) (fun (a, b) ->
      Stdlib.compare (Quat.compare (Quat.of_string a) (Quat.of_string b)) 0
      = Stdlib.compare (String.compare a b) 0)

let quat_units () =
  check Alcotest.int "storage separated" 8 (Quat.storage_bits_separated (Quat.of_string "123"));
  check Alcotest.int "storage compact" 6 (Quat.storage_bits_compact (Quat.of_string "123"));
  check Alcotest.int "last" 3 (Quat.last (Quat.of_string "13"));
  check Alcotest.string "drop_last" "1" (Quat.to_string (Quat.drop_last (Quat.of_string "13")));
  Alcotest.check_raises "rejects 0 digit"
    (Invalid_argument "Quat: digits must be in 1..3 (0 is the separator)") (fun () ->
      ignore (Quat.of_string "102"))

(* ------------------------------------------------------------------ *)
(* Rle                                                                 *)
(* ------------------------------------------------------------------ *)

let rle_paper_example () =
  (* The exact example of §3.1.2: aaaaabcbcbcdddde -> 5a3(bc)4de *)
  check Alcotest.string "Com-D example" "5a3(bc)4de" (Rle.compress "aaaaabcbcbcdddde");
  check Alcotest.string "decompress" "aaaaabcbcbcdddde" (Rle.decompress "5a3(bc)4de")

let letters_gen =
  QCheck.Gen.(map (fun l ->
      String.concat "" (List.map (fun i -> String.make 1 (Char.chr (Char.code 'a' + i))) l))
      (list_size (int_bound 40) (int_bound 3)))

let arb_letters = QCheck.make ~print:Fun.id letters_gen

let rle_roundtrip =
  QCheck.Test.make ~name:"Rle.decompress (compress s) = s" ~count:500 arb_letters (fun s ->
      Rle.decompress (Rle.compress s) = s)

let rle_never_longer =
  QCheck.Test.make ~name:"compression never lengthens its input" ~count:500 arb_letters
    (fun s -> String.length (Rle.compress s) <= String.length s)

(* ------------------------------------------------------------------ *)
(* Varint                                                              *)
(* ------------------------------------------------------------------ *)

let varint_roundtrip =
  QCheck.Test.make ~name:"Varint decode/encode roundtrip" ~count:500
    (QCheck.int_bound Varint.max_encodable) (fun v ->
      let s = Varint.encode v in
      fst (Varint.decode s 0) = v && snd (Varint.decode s 0) = String.length s)

let varint_units () =
  check Alcotest.int "1-byte boundary" 1 (Varint.byte_length 0x7F);
  check Alcotest.int "2-byte boundary" 2 (Varint.byte_length 0x80);
  check Alcotest.int "2-byte top" 2 (Varint.byte_length 0x7FF);
  check Alcotest.int "3-byte boundary" 3 (Varint.byte_length 0x800);
  check Alcotest.int "3-byte top" 3 (Varint.byte_length 0xFFFF);
  check Alcotest.int "4-byte boundary" 4 (Varint.byte_length 0x10000);
  check Alcotest.int "4-byte top" 4 (Varint.byte_length Varint.max_encodable);
  check Alcotest.int "the survey's ceiling" ((1 lsl 21) - 1) Varint.max_encodable;
  (match Varint.byte_length (Varint.max_encodable + 1) with
  | exception Varint.Overflow _ -> ()
  | _ -> Alcotest.fail "expected Overflow past 2^21 - 1");
  check (Alcotest.list Alcotest.int) "list roundtrip" [ 0; 127; 128; 70000 ]
    (Varint.decode_all (Varint.encode_list [ 0; 127; 128; 70000 ]))

(* ------------------------------------------------------------------ *)
(* Bignat                                                              *)
(* ------------------------------------------------------------------ *)

let arb_small = QCheck.int_bound 1_000_000

let bignat_add_mul_oracle =
  QCheck.Test.make ~name:"Bignat add/mul agree with int arithmetic" ~count:500
    (QCheck.pair arb_small arb_small) (fun (a, b) ->
      let open Bignat in
      to_int_opt (add (of_int a) (of_int b)) = Some (a + b)
      && to_int_opt (mul (of_int a) (of_int b)) = Some (a * b))

let bignat_divmod_property =
  QCheck.Test.make ~name:"Bignat divmod: a = q*b + r with r < b" ~count:500
    (QCheck.pair arb_small (QCheck.int_range 1 100_000)) (fun (a, b) ->
      let open Bignat in
      let q, r = divmod (of_int a) (of_int b) in
      equal (add (mul q (of_int b)) r) (of_int a) && compare r (of_int b) < 0)

let bignat_string_roundtrip =
  QCheck.Test.make ~name:"Bignat of_string/to_string roundtrip" ~count:300
    (QCheck.list_of_size (QCheck.Gen.int_range 1 30) (QCheck.int_bound 9)) (fun digits ->
      let s = String.concat "" (List.map string_of_int digits) in
      let canonical = if String.for_all (( = ) '0') s then "0"
        else
          let i = ref 0 in
          while !i < String.length s - 1 && s.[!i] = '0' do incr i done;
          String.sub s !i (String.length s - !i)
      in
      Bignat.to_string (Bignat.of_string s) = canonical)

let bignat_big_values () =
  let open Bignat in
  (* 2^200 by repeated doubling, checked against its known decimal form. *)
  let v = ref one in
  for _ = 1 to 200 do
    v := add !v !v
  done;
  check Alcotest.string "2^200"
    "1606938044258990275541962092341162602522202993782792835301376" (to_string !v);
  check Alcotest.int "bits of 2^200" 201 (bits !v);
  let q, r = divmod !v (of_int 1_000_003) in
  check Alcotest.bool "divmod reconstructs" true (equal (add (mul q (of_int 1_000_003)) r) !v);
  check Alcotest.bool "divides self" true (divides !v !v);
  check Alcotest.bool "2 divides 2^200" true (divides (of_int 2) !v);
  check Alcotest.bool "3 does not divide 2^200" false (divides (of_int 3) !v);
  Alcotest.check_raises "sub underflow" (Invalid_argument "Bignat.sub: negative result")
    (fun () -> ignore (sub (of_int 1) (of_int 2)))

(* ------------------------------------------------------------------ *)
(* Primes and Crt                                                      *)
(* ------------------------------------------------------------------ *)

let primes_units () =
  let t = Primes.create () in
  check (Alcotest.list Alcotest.int) "first primes" [ 2; 3; 5; 7; 11; 13; 17; 19 ]
    (List.init 8 (Primes.nth t));
  check Alcotest.int "100th prime" 541 (Primes.nth t 99);
  check Alcotest.bool "is_prime 97" true (Primes.is_prime t 97);
  check Alcotest.bool "is_prime 91" false (Primes.is_prime t 91);
  check (Alcotest.option Alcotest.int) "index_of 13" (Some 5) (Primes.index_of t 13);
  check (Alcotest.option Alcotest.int) "index_of 12" None (Primes.index_of t 12)

let crt_property =
  QCheck.Test.make ~name:"Crt.solve satisfies every congruence" ~count:200
    (QCheck.list_of_size (QCheck.Gen.int_range 1 8) (QCheck.int_bound 1000)) (fun seeds ->
      let t = Primes.create () in
      (* distinct primes with residues below each *)
      let pairs =
        List.mapi (fun i r -> let p = Primes.nth t (i + 3) in (p, r mod p)) seeds
      in
      let sc = Crt.solve pairs in
      List.for_all (fun (p, r) -> Crt.residue sc p = r) pairs)

(* The standard CRC-32 check value, and the range form agreeing with the
   whole-string and concatenation forms. *)
let crc32_units () =
  let module C = Repro_codes.Crc32 in
  Alcotest.(check int32) "check value of 123456789" 0xCBF43926l (C.string "123456789");
  Alcotest.(check int32) "empty string" 0l (C.string "");
  let b = Bytes.of_string "xx123456789yy" in
  Alcotest.(check int32) "range" (C.string "123456789") (C.bytes b 2 9);
  Alcotest.(check int32) "parts" (C.string "123456789") (C.strings [ "1234"; ""; "56789" ]);
  Alcotest.check_raises "range past the end" (Invalid_argument "Crc32.bytes") (fun () ->
      ignore (C.bytes b 5 9))

let suite =
  [
    ("bitstr units", `Quick, bitstr_units);
    ("quat units", `Quick, quat_units);
    ("rle paper example", `Quick, rle_paper_example);
    ("varint units", `Quick, varint_units);
    ("bignat big values", `Quick, bignat_big_values);
    ("primes units", `Quick, primes_units);
    qcheck bitstr_roundtrip;
    qcheck bitstr_order_matches_strings;
    qcheck bitstr_concat_assoc;
    qcheck bitstr_prefix_order;
    qcheck bitstr_int_roundtrip;
    qcheck quat_roundtrip;
    qcheck quat_order;
    qcheck rle_roundtrip;
    qcheck rle_never_longer;
    qcheck varint_roundtrip;
    qcheck bignat_add_mul_oracle;
    qcheck bignat_divmod_property;
    qcheck bignat_string_roundtrip;
    qcheck crt_property;
    ("crc32 units", `Quick, crc32_units);
  ]
