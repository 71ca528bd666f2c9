(* A leaf's [vals] is [||] in a set and as long as [keys] in a map. A
   separator bounds its neighbours: every key of [kids.(i)] is below
   [seps.(i)] and every key of [kids.(i + 1)] at least [seps.(i)]. A
   separator need not be a live key — removals leave them as they were. *)
type 'a t =
  | Leaf of { keys : int array; vals : 'a array }
  | Node of { seps : int array; kids : 'a t array }

(* 64 entries keep a leaf's two arrays under the minor heap's size limit
   (256 words), so a path copy never allocates in the major heap, while
   the five words of leaf overhead cost under a tenth of a word per
   entry. *)
let width = 64
let min_fill = width / 2
let empty = Leaf { keys = [||]; vals = [||] }
let is_empty = function Leaf { keys; _ } -> Array.length keys = 0 | Node _ -> false
let size = function Leaf { keys; _ } -> Array.length keys | Node { kids; _ } -> Array.length kids

(* ---- array plumbing ----------------------------------------------- *)

let insert_at a i x =
  let n = Array.length a in
  let b = Array.make (n + 1) x in
  Array.blit a 0 b 0 i;
  Array.blit a i b (i + 1) (n - i);
  b

let remove_at a i =
  let n = Array.length a in
  if n = 1 then [||]
  else begin
    let b = Array.make (n - 1) a.(0) in
    Array.blit a 0 b 0 i;
    Array.blit a (i + 1) b i (n - i - 1);
    b
  end

let set_at a i x =
  let b = Array.copy a in
  b.(i) <- x;
  b

(* value-array counterparts that leave a set's empty array alone *)
let vsub vals off len = if Array.length vals = 0 then vals else Array.sub vals off len
let vremove vals i = if Array.length vals = 0 then vals else remove_at vals i

(* The first index whose key satisfies the monotone [f], or the length. *)
let first_true f (a : int array) =
  let lo = ref 0 and hi = ref (Array.length a) in
  while !lo < !hi do
    let mid = (!lo + !hi) lsr 1 in
    if f a.(mid) then hi := mid else lo := mid + 1
  done;
  !lo

(* The index of the first key >= k. *)
let lower_bound a k = first_true (fun x -> x >= k) a

(* The child whose range holds k: the number of separators <= k. *)
let child_index seps k = first_true (fun x -> x > k) seps

(* ---- reads -------------------------------------------------------- *)

let rec find k = function
  | Leaf { keys; vals } ->
    let i = lower_bound keys k in
    if i < Array.length keys && keys.(i) = k then vals.(i) else raise Not_found
  | Node { seps; kids } -> find k kids.(child_index seps k)

let find_opt k t = match find k t with v -> Some v | exception Not_found -> None

let rec mem k = function
  | Leaf { keys; _ } ->
    let i = lower_bound keys k in
    i < Array.length keys && keys.(i) = k
  | Node { seps; kids } -> mem k kids.(child_index seps k)

let rec min_binding = function
  | Leaf { keys; vals } ->
    if Array.length keys = 0 then raise Not_found else (keys.(0), vals.(0))
  | Node { kids; _ } -> min_binding kids.(0)

let rec max_binding = function
  | Leaf { keys; vals } ->
    let n = Array.length keys in
    if n = 0 then raise Not_found else (keys.(n - 1), vals.(n - 1))
  | Node { kids; _ } -> max_binding kids.(Array.length kids - 1)

(* With [j] the first separator satisfying [f], the children left of [j]
   hold only keys below a separator that fails [f], and the children right
   of it only keys at or above one that satisfies it: the answer is in
   child [j], else it is the smallest key of child [j + 1]. *)
let rec find_first_opt f = function
  | Leaf { keys; vals } ->
    let i = first_true f keys in
    if i < Array.length keys then Some (keys.(i), vals.(i)) else None
  | Node { seps; kids } -> (
    let j = first_true f seps in
    match find_first_opt f kids.(j) with
    | Some _ as r -> r
    | None -> if j + 1 < Array.length kids then Some (min_binding kids.(j + 1)) else None)

(* The mirror image: with [j] the first separator failing [f], the answer
   is in child [j], else it is the largest key of child [j - 1]. *)
let rec find_last_opt f = function
  | Leaf { keys; vals } ->
    let i = first_true (fun k -> not (f k)) keys in
    if i > 0 then Some (keys.(i - 1), vals.(i - 1)) else None
  | Node { seps; kids } -> (
    let j = first_true (fun k -> not (f k)) seps in
    match find_last_opt f kids.(j) with
    | Some _ as r -> r
    | None -> if j > 0 then Some (max_binding kids.(j - 1)) else None)

let rec fold f t acc =
  match t with
  | Leaf { keys; vals } ->
    let acc = ref acc in
    Array.iteri (fun i k -> acc := f k vals.(i) !acc) keys;
    !acc
  | Node { kids; _ } -> Array.fold_left (fun acc c -> fold f c acc) acc kids

let rec cardinal = function
  | Leaf { keys; _ } -> Array.length keys
  | Node { kids; _ } -> Array.fold_left (fun n c -> n + cardinal c) 0 kids

let rec fold_keys f t acc =
  match t with
  | Leaf { keys; _ } -> Array.fold_left (fun acc k -> f k acc) acc keys
  | Node { kids; _ } -> Array.fold_left (fun acc c -> fold_keys f c acc) acc kids

let bindings t = List.rev (fold (fun k v acc -> (k, v) :: acc) t [])

(* Lazy in-order walks: [rest] is what follows the subtree being walked. *)
let rec leaf_seq keys vals i rest () =
  if i >= Array.length keys then rest ()
  else Seq.Cons ((keys.(i), vals.(i)), leaf_seq keys vals (i + 1) rest)

and kids_seq kids i rest () =
  if i >= Array.length kids then rest () else whole kids.(i) (kids_seq kids (i + 1) rest) ()

and whole t rest =
  match t with
  | Leaf { keys; vals } -> leaf_seq keys vals 0 rest
  | Node { kids; _ } -> kids_seq kids 0 rest

let to_seq t = whole t Seq.empty

let to_seq_from k t =
  let rec from t rest =
    match t with
    | Leaf { keys; vals } -> leaf_seq keys vals (lower_bound keys k) rest
    | Node { seps; kids } ->
      let j = child_index seps k in
      from kids.(j) (kids_seq kids (j + 1) rest)
  in
  from t Seq.empty

let rec depth = function Leaf _ -> 0 | Node { kids; _ } -> 1 + depth kids.(0)

(* ---- updates ------------------------------------------------------ *)

type 'a grown = One of 'a t | Split of 'a t * int * 'a t

(* Halve an overfull leaf or inner node. *)
let split_leaf keys vals =
  let n = Array.length keys in
  let m = n / 2 in
  Split
    ( Leaf { keys = Array.sub keys 0 m; vals = vsub vals 0 m },
      keys.(m),
      Leaf { keys = Array.sub keys m (n - m); vals = vsub vals m (n - m) } )

let split_node seps kids =
  let n = Array.length kids in
  let m = n / 2 in
  Split
    ( Node { seps = Array.sub seps 0 (m - 1); kids = Array.sub kids 0 m },
      seps.(m - 1),
      Node { seps = Array.sub seps m (n - m - 1); kids = Array.sub kids m (n - m) } )

(* [set]: the tree stores no values, so [v] is not kept. *)
let rec grow ~set k v t =
  match t with
  | Leaf { keys; vals } ->
    let i = lower_bound keys k in
    if i < Array.length keys && keys.(i) = k then
      if set || vals.(i) == v then One t else One (Leaf { keys; vals = set_at vals i v })
    else begin
      let keys = insert_at keys i k in
      let vals = if set then vals else insert_at vals i v in
      if Array.length keys <= width then One (Leaf { keys; vals }) else split_leaf keys vals
    end
  | Node { seps; kids } -> (
    let j = child_index seps k in
    match grow ~set k v kids.(j) with
    | One c -> if c == kids.(j) then One t else One (Node { seps; kids = set_at kids j c })
    | Split (l, sep, r) ->
      let seps = insert_at seps j sep in
      let kids = insert_at (set_at kids j l) (j + 1) r in
      if Array.length kids <= width then One (Node { seps; kids }) else split_node seps kids)

let add_gen ~set k v t =
  match grow ~set k v t with
  | One t -> t
  | Split (l, sep, r) -> Node { seps = [| sep |]; kids = [| l; r |] }

let add k v t = add_gen ~set:false k v t

(* Refill the underfull child [j] from a neighbour: join it with the
   neighbour across their separator, and split the result evenly again if
   it overflows. Both halves of an even split of at least [width + 1]
   items hold at least [min_fill]. *)
let rebalance seps kids j c =
  let kids = set_at kids j c in
  let i = if j > 0 then j - 1 else j in
  let joined =
    match (kids.(i), kids.(i + 1)) with
    | Leaf a, Leaf b ->
      let keys = Array.append a.keys b.keys and vals = Array.append a.vals b.vals in
      if Array.length keys <= width then One (Leaf { keys; vals }) else split_leaf keys vals
    | Node a, Node b ->
      let s = Array.concat [ a.seps; [| seps.(i) |]; b.seps ] in
      let k = Array.append a.kids b.kids in
      if Array.length k <= width then One (Node { seps = s; kids = k }) else split_node s k
    | _ -> invalid_arg "Btree: leaves at different depths"
  in
  match joined with
  | One m -> Node { seps = remove_at seps i; kids = set_at (remove_at kids (i + 1)) i m }
  | Split (l, sep, r) ->
    (* [kids] is this call's own copy *)
    kids.(i) <- l;
    kids.(i + 1) <- r;
    Node { seps = set_at seps i sep; kids }

let rec shrink k t =
  match t with
  | Leaf { keys; vals } ->
    let i = lower_bound keys k in
    if i < Array.length keys && keys.(i) = k then
      Leaf { keys = remove_at keys i; vals = vremove vals i }
    else t
  | Node { seps; kids } ->
    let j = child_index seps k in
    let c = shrink k kids.(j) in
    if c == kids.(j) then t
    else if size c >= min_fill then Node { seps; kids = set_at kids j c }
    else rebalance seps kids j c

let remove k t =
  match shrink k t with Node { kids = [| only |]; _ } -> only | t -> t

(* ---- bottom-up build ---------------------------------------------- *)

(* Cut [n] items into the fewest runs of at most [width], as even as
   possible: each run then holds at least [min_fill] once there are two. *)
let runs n f =
  let count = (n + width - 1) / width in
  let base = n / count and extra = n mod count in
  let off = ref 0 in
  Array.init count (fun r ->
      let len = base + if r < extra then 1 else 0 in
      let x = f !off len in
      off := !off + len;
      x)

let of_sorted_gen keys vals =
  let n = Array.length keys in
  for i = 1 to n - 1 do
    if keys.(i - 1) >= keys.(i) then invalid_arg "Btree.of_sorted: keys not increasing"
  done;
  if n = 0 then empty
  else begin
    let level =
      runs n (fun off len ->
          (keys.(off), Leaf { keys = Array.sub keys off len; vals = vsub vals off len }))
    in
    let rec up level =
      if Array.length level = 1 then snd level.(0)
      else
        up
          (runs (Array.length level) (fun off len ->
               ( fst level.(off),
                 Node
                   {
                     seps = Array.init (len - 1) (fun i -> fst level.(off + i + 1));
                     kids = Array.init len (fun i -> snd level.(off + i));
                   } )))
    in
    up level
  end

let of_sorted keys vals =
  if Array.length keys <> Array.length vals then
    invalid_arg "Btree.of_sorted: key and value arrays differ in length";
  of_sorted_gen keys vals

(* ---- invariants --------------------------------------------------- *)

let check_gen ~set t =
  let expected = depth t in
  let err = ref None in
  let fail fmt = Printf.ksprintf (fun s -> if !err = None then err := Some s) fmt in
  (* every key k of a subtree satisfies lo <= k < hi; no [hi] bounds the
     rightmost path *)
  let in_bounds what k ~lo ~hi =
    if k < lo || match hi with Some h -> k >= h | None -> false then
      fail "%s %d outside its subtree's bounds" what k
  in
  let ascending what a =
    for i = 1 to Array.length a - 1 do
      if a.(i - 1) >= a.(i) then fail "%s out of order at %d" what i
    done
  in
  let rec go t ~root ~level ~lo ~hi =
    let n = size t in
    if n > width then fail "node of %d items exceeds width %d" n width;
    if (not root) && n < min_fill then fail "underfull node of %d items" n;
    match t with
    | Leaf { keys; vals } ->
      if level <> expected then fail "leaf at depth %d, expected %d" level expected;
      if Array.length vals <> if set then 0 else n then fail "value array length mismatch";
      ascending "leaf keys" keys;
      Array.iter (fun k -> in_bounds "key" k ~lo ~hi) keys
    | Node { seps; kids } ->
      if root && n < 2 then fail "inner root with %d child" n;
      if Array.length seps <> n - 1 then fail "%d separators for %d children" (Array.length seps) n;
      ascending "separators" seps;
      Array.iter (fun s -> in_bounds "separator" s ~lo ~hi) seps;
      Array.iteri
        (fun i c ->
          let lo = if i = 0 then lo else seps.(i - 1) in
          let hi = if i = n - 1 then hi else Some seps.(i) in
          go c ~root:false ~level:(level + 1) ~lo ~hi)
        kids
  in
  go t ~root:true ~level:0 ~lo:min_int ~hi:None;
  match !err with None -> Ok () | Some msg -> Error msg

let check t = check_gen ~set:false t

module Set = struct
  type nonrec t = unit t

  let empty = empty
  let is_empty = is_empty
  let add k s = add_gen ~set:true k () s
  let remove = remove
  let mem = mem
  let fold = fold_keys
  let of_sorted keys = of_sorted_gen keys [||]
  let check s = check_gen ~set:true s
end
