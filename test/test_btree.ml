(* Model-based tests of the persistent B+-tree behind Axis_inc: seeded
   operation sequences run against Stdlib Map and Set, every version's
   answers compared with its model, every version's structure checked,
   and every earlier version re-probed after each later operation — an
   update that wrote into a shared array would change an old version's
   answer at the key it touched. *)

open Repro_encoding
module Imap = Map.Make (Int)
module Iset = Set.Make (Int)

let fail fmt = Alcotest.failf fmt

let pairs = Alcotest.(list (pair int int))

let seq_take n s = List.of_seq (Seq.take n s)

(* Most keys fall in a hot window of the key space, so runs of adds
   split leaves and inner nodes there and runs of removes drain and merge
   them; a few come from anywhere, the extremes included, to exercise
   the separator bounds. *)
let draw_key rng ~range ~hot =
  match Random.State.int rng 100 with
  | 0 -> min_int
  | 1 -> max_int
  | 2 | 3 | 4 -> Random.State.int rng range
  | _ -> hot + Random.State.int rng (range / 20)

let ok_structure what = function Ok () -> () | Error e -> fail "%s: %s" what e

(* The answers of one map version that the model pins down at key [k]:
   the binding there and its neighbours on either side. *)
let probe_map what (t : int Btree.t) (m : int Imap.t) k =
  let eq name a b = if a <> b then fail "%s: %s %d disagrees with Map" what name k in
  eq "find_opt" (Btree.find_opt k t) (Imap.find_opt k m);
  eq "find_first_opt (>)" (Btree.find_first_opt (fun x -> x > k) t)
    (Imap.find_first_opt (fun x -> x > k) m);
  eq "find_last_opt (<)" (Btree.find_last_opt (fun x -> x < k) t)
    (Imap.find_last_opt (fun x -> x < k) m)

(* Every query the model answers, at key [k]. *)
let query_map what (t : int Btree.t) (m : int Imap.t) k =
  let eq name a b = if a <> b then fail "%s: %s %d disagrees with Map" what name k in
  probe_map what t m k;
  eq "find_first_opt (>=)" (Btree.find_first_opt (fun x -> x >= k) t)
    (Imap.find_first_opt (fun x -> x >= k) m);
  eq "find_last_opt (<=)" (Btree.find_last_opt (fun x -> x <= k) t)
    (Imap.find_last_opt (fun x -> x <= k) m);
  eq "to_seq_from" (seq_take 40 (Btree.to_seq_from k t)) (seq_take 40 (Imap.to_seq_from k m))

let whole_map what t m =
  ok_structure what (Btree.check t);
  Alcotest.check pairs (what ^ ": bindings") (Imap.bindings m) (Btree.bindings t);
  Alcotest.check pairs (what ^ ": fold") (Imap.bindings m)
    (List.rev (Btree.fold (fun k v acc -> (k, v) :: acc) t []));
  Alcotest.check pairs (what ^ ": to_seq") (Imap.bindings m) (List.of_seq (Btree.to_seq t));
  Alcotest.(check int) (what ^ ": cardinal") (Imap.cardinal m) (Btree.cardinal t);
  match Imap.min_binding_opt m with
  | None -> ()
  | Some b -> if Btree.min_binding t <> b then fail "%s: min_binding" what

(* A starting map packed bottom-up two inner levels deep, then a seeded
   storm: add-heavy in its first half, remove-heavy in its second, and a
   final drain of every key in random order. *)
let map_model seed () =
  let rng = Random.State.make [| seed |] in
  let range = 40_000 in
  let hot = Random.State.int rng (range - (range / 20)) in
  let init =
    List.sort_uniq Int.compare (List.init 6_000 (fun _ -> Random.State.int rng range))
  in
  let m0 = List.fold_left (fun m k -> Imap.add k (k * 3) m) Imap.empty init in
  let t0 =
    Btree.of_sorted (Array.of_list init) (Array.of_list (List.map (fun k -> k * 3) init))
  in
  whole_map "bulk build" t0 m0;
  if Btree.depth t0 <> 2 then
    fail "bulk build of %d keys is %d deep, not 2" (List.length init) (Btree.depth t0);
  let ops = 1_200 in
  let versions = Array.make (ops + 1) (t0, m0) in
  let depths = ref [ 2 ] in
  for j = 1 to ops do
    let t, m = versions.(j - 1) in
    let k = draw_key rng ~range ~hot in
    let adding = Random.State.int rng 100 < if j <= ops / 2 then 70 else 15 in
    let t, m =
      if adding then begin
        let v = Random.State.int rng 1_000 in
        (Btree.add k v t, Imap.add k v m)
      end
      else
        (* remove the next live key, so the tree shrinks *)
        let k = match Imap.find_first_opt (fun x -> x >= k) m with Some (x, _) -> x | None -> k in
        (Btree.remove k t, Imap.remove k m)
    in
    versions.(j) <- (t, m);
    if not (List.mem (Btree.depth t) !depths) then depths := Btree.depth t :: !depths;
    let what = Printf.sprintf "seed %d op %d" seed j in
    ok_structure what (Btree.check t);
    Alcotest.(check int) (what ^ ": cardinal") (Imap.cardinal m) (Btree.cardinal t);
    query_map what t m k;
    query_map what t m (draw_key rng ~range ~hot);
    for i = 0 to j - 1 do
      let ti, mi = versions.(i) in
      probe_map (Printf.sprintf "%s, version %d" what i) ti mi k
    done
  done;
  Array.iteri
    (fun i (t, m) ->
      if i mod 25 = 0 then whole_map (Printf.sprintf "seed %d version %d" seed i) t m)
    versions;
  let t, m = versions.(ops) in
  let keys = Array.of_list (List.map fst (Imap.bindings m)) in
  for i = Array.length keys - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let x = keys.(i) in
    keys.(i) <- keys.(j);
    keys.(j) <- x
  done;
  let t, _ =
    Array.fold_left
      (fun (t, n) k ->
        let t = Btree.remove k t in
        if n mod 64 = 0 then
          ok_structure (Printf.sprintf "seed %d drain %d" seed n) (Btree.check t);
        if not (List.mem (Btree.depth t) !depths) then depths := Btree.depth t :: !depths;
        (t, n + 1))
      (t, 0) keys
  in
  whole_map "drained" t Imap.empty;
  whole_map "last version after the drain" (fst versions.(ops)) (snd versions.(ops));
  (* the drain collapsed the root level by level *)
  Alcotest.(check (list int)) "depths seen" [ 0; 1; 2 ] (List.sort compare !depths)

let set_model seed () =
  let rng = Random.State.make [| seed |] in
  let range = 30_000 in
  let hot = Random.State.int rng (range - (range / 20)) in
  let init = List.sort_uniq Int.compare (List.init 5_000 (fun _ -> Random.State.int rng range)) in
  let versions = ref [ (Btree.Set.of_sorted (Array.of_list init), Iset.of_list init) ] in
  let whole what (t, s) =
    ok_structure what (Btree.Set.check t);
    Alcotest.(check (list int))
      (what ^ ": fold") (Iset.elements s)
      (List.rev (Btree.Set.fold (fun k acc -> k :: acc) t []));
    Alcotest.(check bool) (what ^ ": is_empty") (Iset.is_empty s) (Btree.Set.is_empty t)
  in
  whole "bulk build" (List.hd !versions);
  for j = 1 to 1_000 do
    let t, s = List.hd !versions in
    let k = draw_key rng ~range ~hot in
    let next =
      let adding = Random.State.int rng 100 < if j <= 500 then 70 else 15 in
      if adding then (Btree.Set.add k t, Iset.add k s)
      else
        let k = match Iset.find_first_opt (fun x -> x >= k) s with Some x -> x | None -> k in
        (Btree.Set.remove k t, Iset.remove k s)
    in
    versions := next :: !versions;
    ok_structure (Printf.sprintf "seed %d op %d" seed j) (Btree.Set.check (fst next));
    List.iteri
      (fun i (t, s) ->
        if Btree.Set.mem k t <> Iset.mem k s then
          fail "seed %d op %d: mem %d of version %d disagrees with Set" seed j k (j - i))
      !versions
  done;
  List.iteri
    (fun i v -> if i mod 25 = 0 then whole (Printf.sprintf "seed %d version %d" seed i) v)
    !versions

(* Bottom-up builds at and around every fill boundary. *)
let of_sorted_sizes () =
  let w = Btree.width in
  List.iter
    (fun n ->
      let keys = Array.init n (fun i -> (2 * i) - n) in
      let t = Btree.of_sorted keys (Array.map (fun k -> -k) keys) in
      whole_map (Printf.sprintf "of_sorted %d" n) t
        (Array.fold_left (fun m k -> Imap.add k (-k) m) Imap.empty keys);
      ok_structure (Printf.sprintf "Set.of_sorted %d" n)
        (Btree.Set.check (Btree.Set.of_sorted keys)))
    [ 0; 1; 2; w - 1; w; w + 1; 2 * w; (w * w) - 1; w * w; (w * w) + 1; (w * w * 2) + 7 ];
  Alcotest.check_raises "keys must increase"
    (Invalid_argument "Btree.of_sorted: keys not increasing") (fun () ->
      ignore (Btree.Set.of_sorted [| 1; 3; 3 |]));
  Alcotest.check_raises "one value per key"
    (Invalid_argument "Btree.of_sorted: key and value arrays differ in length") (fun () ->
      ignore (Btree.of_sorted [| 1; 2 |] [| 0 |]))

(* Sequential runs — what rank allocation and document-order inserts
   produce — split only the rightmost path. *)
let ascending_and_descending () =
  let n = 5_000 in
  let adds keys = List.fold_left (fun t k -> Btree.add k k t) Btree.empty keys in
  let model keys = List.fold_left (fun m k -> Imap.add k k m) Imap.empty keys in
  let ascending = List.init n Fun.id and descending = List.init n (fun i -> n - i) in
  whole_map "ascending adds" (adds ascending) (model ascending);
  whole_map "descending adds" (adds descending) (model descending);
  let evens = List.init (n / 2) (fun i -> 2 * i) in
  whole_map "every other key removed"
    (List.fold_left (fun t k -> Btree.remove k t) (adds ascending) evens)
    (List.fold_left (fun m k -> Imap.remove k m) (model ascending) evens)

let suite =
  [
    ("bulk build at every fill boundary", `Quick, of_sorted_sizes);
    ("ascending and descending runs", `Quick, ascending_and_descending);
    ("map model, seed 1", `Quick, map_model 1);
    ("map model, seed 2", `Slow, map_model 2);
    ("set model, seed 1", `Quick, set_model 1);
    ("set model, seed 2", `Slow, set_model 2);
  ]
