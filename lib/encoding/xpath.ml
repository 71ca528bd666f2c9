type error = { position : int; message : string }

exception Parse_error of error

let pp_error ppf e =
  Format.fprintf ppf "XPath error at offset %d: %s" e.position e.message

(* ------------------------------------------------------------------ *)
(* Abstract syntax                                                     *)
(* ------------------------------------------------------------------ *)

type axis =
  | Child
  | Descendant
  | Descendant_or_self
  | Parent
  | Ancestor
  | Ancestor_or_self
  | Following
  | Preceding
  | Following_sibling
  | Preceding_sibling
  | Self
  | Attribute

type nodetest = Name of string | Any | Node

type step = { axis : axis; test : nodetest; predicates : expr list }

and expr =
  | Path of path
  | Literal of string
  | Number of float
  | Compare of cmp * expr * expr
  | And of expr * expr
  | Or of expr * expr
  | Not of expr
  | Position
  | Last
  | Count of path

and cmp = Eq | Neq | Lt | Le | Gt | Ge

and path = { absolute : bool; steps : step list }

type ast = path

(* Whether an axis can yield attribute nodes (XPath reaches attributes only
   through the attribute axis, or self from an attribute context). *)
let axis_reaches_attributes = function
  | Attribute | Self -> true
  | Child | Descendant | Descendant_or_self | Parent | Ancestor | Ancestor_or_self
  | Following | Preceding | Following_sibling | Preceding_sibling ->
    false

let axis_name = function
  | Child -> "child"
  | Descendant -> "descendant"
  | Descendant_or_self -> "descendant-or-self"
  | Parent -> "parent"
  | Ancestor -> "ancestor"
  | Ancestor_or_self -> "ancestor-or-self"
  | Following -> "following"
  | Preceding -> "preceding"
  | Following_sibling -> "following-sibling"
  | Preceding_sibling -> "preceding-sibling"
  | Self -> "self"
  | Attribute -> "attribute"

let cmp_name = function
  | Eq -> "="
  | Neq -> "!="
  | Lt -> "<"
  | Le -> "<="
  | Gt -> ">"
  | Ge -> ">="

let rec step_to_string s =
  let test =
    match s.test with Name n -> n | Any -> "*" | Node -> "node()"
  in
  Printf.sprintf "%s::%s%s" (axis_name s.axis) test
    (String.concat "" (List.map (fun p -> "[" ^ expr_to_string p ^ "]") s.predicates))

and expr_to_string = function
  | Path p -> path_to_string p
  | Literal s -> "'" ^ s ^ "'"
  | Number f -> if Float.is_integer f then string_of_int (int_of_float f) else string_of_float f
  | Compare (c, a, b) -> expr_to_string a ^ " " ^ cmp_name c ^ " " ^ expr_to_string b
  | And (a, b) -> expr_to_string a ^ " and " ^ expr_to_string b
  | Or (a, b) -> expr_to_string a ^ " or " ^ expr_to_string b
  | Not e -> "not(" ^ expr_to_string e ^ ")"
  | Position -> "position()"
  | Last -> "last()"
  | Count p -> "count(" ^ path_to_string p ^ ")"

and path_to_string p =
  (if p.absolute then "/" else "") ^ String.concat "/" (List.map step_to_string p.steps)

let to_string = path_to_string

(* ------------------------------------------------------------------ *)
(* Lexer                                                               *)
(* ------------------------------------------------------------------ *)

type token =
  | Tslash
  | Tdslash
  | Tdot
  | Tddot
  | Tat
  | Tstar
  | Tlbracket
  | Trbracket
  | Tlparen
  | Trparen
  | Tcolon2
  | Tcomma
  | Tname of string
  | Tstring of string
  | Tnumber of float
  | Tcmp of cmp
  | Teof

let fail pos message = raise (Parse_error { position = pos; message })

let is_name_start c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'

let is_name_char c = is_name_start c || (c >= '0' && c <= '9') || c = '-' || c = '.'

let tokenize src =
  let n = String.length src in
  let toks = ref [] in
  let push t pos = toks := (t, pos) :: !toks in
  let i = ref 0 in
  while !i < n do
    let c = src.[!i] in
    let pos = !i in
    if c = ' ' || c = '\t' || c = '\n' then incr i
    else if c = '/' then
      if !i + 1 < n && src.[!i + 1] = '/' then begin push Tdslash pos; i := !i + 2 end
      else begin push Tslash pos; incr i end
    else if c = '.' then
      if !i + 1 < n && src.[!i + 1] = '.' then begin push Tddot pos; i := !i + 2 end
      else begin push Tdot pos; incr i end
    else if c = ':' && !i + 1 < n && src.[!i + 1] = ':' then begin
      push Tcolon2 pos;
      i := !i + 2
    end
    else if c = '@' then begin push Tat pos; incr i end
    else if c = '*' then begin push Tstar pos; incr i end
    else if c = '[' then begin push Tlbracket pos; incr i end
    else if c = ']' then begin push Trbracket pos; incr i end
    else if c = '(' then begin push Tlparen pos; incr i end
    else if c = ')' then begin push Trparen pos; incr i end
    else if c = ',' then begin push Tcomma pos; incr i end
    else if c = '=' then begin push (Tcmp Eq) pos; incr i end
    else if c = '!' && !i + 1 < n && src.[!i + 1] = '=' then begin
      push (Tcmp Neq) pos;
      i := !i + 2
    end
    else if c = '<' then
      if !i + 1 < n && src.[!i + 1] = '=' then begin push (Tcmp Le) pos; i := !i + 2 end
      else begin push (Tcmp Lt) pos; incr i end
    else if c = '>' then
      if !i + 1 < n && src.[!i + 1] = '=' then begin push (Tcmp Ge) pos; i := !i + 2 end
      else begin push (Tcmp Gt) pos; incr i end
    else if c = '\'' || c = '"' then begin
      let quote = c in
      let start = !i + 1 in
      let rec close j = if j >= n then fail pos "unterminated string literal"
        else if src.[j] = quote then j else close (j + 1)
      in
      let j = close start in
      push (Tstring (String.sub src start (j - start))) pos;
      i := j + 1
    end
    else if c >= '0' && c <= '9' then begin
      let start = !i in
      while !i < n && ((src.[!i] >= '0' && src.[!i] <= '9') || src.[!i] = '.') do incr i done;
      push (Tnumber (float_of_string (String.sub src start (!i - start)))) pos
    end
    else if is_name_start c then begin
      let start = !i in
      while !i < n && is_name_char src.[!i] do incr i done;
      push (Tname (String.sub src start (!i - start))) pos
    end
    else fail pos (Printf.sprintf "unexpected character %C" c)
  done;
  push Teof n;
  List.rev !toks

(* ------------------------------------------------------------------ *)
(* Parser (recursive descent over the token list)                      *)
(* ------------------------------------------------------------------ *)

type parser_state = { mutable toks : (token * int) list }

let peek st = match st.toks with (t, p) :: _ -> (t, p) | [] -> (Teof, 0)

let advance st = match st.toks with _ :: rest -> st.toks <- rest | [] -> ()

let expect st tok what =
  let t, p = peek st in
  if t = tok then advance st else fail p ("expected " ^ what)

let axis_of_name p = function
  | "child" -> Child
  | "descendant" -> Descendant
  | "descendant-or-self" -> Descendant_or_self
  | "parent" -> Parent
  | "ancestor" -> Ancestor
  | "ancestor-or-self" -> Ancestor_or_self
  | "following" -> Following
  | "preceding" -> Preceding
  | "following-sibling" -> Following_sibling
  | "preceding-sibling" -> Preceding_sibling
  | "self" -> Self
  | "attribute" -> Attribute
  | a -> fail p ("unknown axis " ^ a)

let rec parse_path st =
  let t, _ = peek st in
  match t with
  | Tslash ->
    advance st;
    let t2, _ = peek st in
    if t2 = Teof then { absolute = true; steps = [] }
    else { absolute = true; steps = parse_steps st }
  | Tdslash ->
    advance st;
    let steps = parse_steps st in
    { absolute = true; steps = { axis = Descendant_or_self; test = Node; predicates = [] } :: steps }
  | _ -> { absolute = false; steps = parse_steps st }

and parse_steps st =
  let first = parse_step st in
  let rec more acc =
    match peek st with
    | Tslash, _ ->
      advance st;
      more (parse_step st :: acc)
    | Tdslash, _ ->
      advance st;
      let dos = { axis = Descendant_or_self; test = Node; predicates = [] } in
      more (parse_step st :: dos :: acc)
    | _ -> List.rev acc
  in
  more [ first ]

and parse_step st =
  let t, p = peek st in
  match t with
  | Tdot ->
    advance st;
    { axis = Self; test = Node; predicates = [] }
  | Tddot ->
    advance st;
    { axis = Parent; test = Node; predicates = [] }
  | Tat ->
    advance st;
    let test = parse_nodetest st in
    { axis = Attribute; test; predicates = parse_predicates st }
  | Tstar ->
    advance st;
    { axis = Child; test = Any; predicates = parse_predicates st }
  | Tname name -> (
    (* Either an explicit axis (name::) or a child-axis name test. *)
    match st.toks with
    | (_, _) :: (Tcolon2, _) :: _ ->
      advance st;
      advance st;
      let axis = axis_of_name p name in
      let test = parse_nodetest st in
      { axis; test; predicates = parse_predicates st }
    | _ ->
      advance st;
      (* node() as a bare test *)
      let test =
        if name = "node" && fst (peek st) = Tlparen then begin
          advance st;
          expect st Trparen ")";
          Node
        end
        else Name name
      in
      { axis = Child; test; predicates = parse_predicates st })
  | _ -> fail p "expected a location step"

and parse_nodetest st =
  let t, p = peek st in
  match t with
  | Tstar ->
    advance st;
    Any
  | Tname "node" when (match st.toks with _ :: (Tlparen, _) :: _ -> true | _ -> false) ->
    advance st;
    advance st;
    expect st Trparen ")";
    Node
  | Tname n ->
    advance st;
    Name n
  | _ -> fail p "expected a node test"

and parse_predicates st =
  match peek st with
  | Tlbracket, _ ->
    advance st;
    let e = parse_expr st in
    expect st Trbracket "]";
    e :: parse_predicates st
  | _ -> []

and parse_expr st = parse_or st

and parse_or st =
  let left = parse_and st in
  match peek st with
  | Tname "or", _ ->
    advance st;
    Or (left, parse_or st)
  | _ -> left

and parse_and st =
  let left = parse_cmp st in
  match peek st with
  | Tname "and", _ ->
    advance st;
    And (left, parse_and st)
  | _ -> left

and parse_cmp st =
  let left = parse_primary st in
  match peek st with
  | Tcmp c, _ ->
    advance st;
    Compare (c, left, parse_primary st)
  | _ -> left

and parse_primary st =
  let t, p = peek st in
  match t with
  | Tnumber f ->
    advance st;
    Number f
  | Tstring s ->
    advance st;
    Literal s
  | Tlparen ->
    advance st;
    let e = parse_expr st in
    expect st Trparen ")";
    e
  | Tname "not" when (match st.toks with _ :: (Tlparen, _) :: _ -> true | _ -> false) ->
    advance st;
    advance st;
    let e = parse_expr st in
    expect st Trparen ")";
    Not e
  | Tname "position" when (match st.toks with _ :: (Tlparen, _) :: _ -> true | _ -> false) ->
    advance st;
    advance st;
    expect st Trparen ")";
    Position
  | Tname "last" when (match st.toks with _ :: (Tlparen, _) :: _ -> true | _ -> false) ->
    advance st;
    advance st;
    expect st Trparen ")";
    Last
  | Tname "count" when (match st.toks with _ :: (Tlparen, _) :: _ -> true | _ -> false) ->
    advance st;
    advance st;
    let path = parse_path st in
    expect st Trparen ")";
    Count path
  | Tname _ | Tdot | Tddot | Tat | Tstar | Tslash | Tdslash -> Path (parse_path st)
  | _ -> fail p "expected an expression"

let parse src =
  let st = { toks = tokenize src } in
  let path = parse_path st in
  (match peek st with
  | Teof, _ -> ()
  | _, p -> fail p "trailing tokens after the path expression");
  path

(* ------------------------------------------------------------------ *)
(* Evaluation                                                          *)
(* ------------------------------------------------------------------ *)

open Encoding

(* The virtual document node above the root element: absolute paths start
   here, so that /book selects the root element itself. *)
let virtual_root : row =
  {
    pre = -1;
    post = max_int;
    kind = Element;
    parent_pre = None;
    level = -1;
    name = "#document";
    value = None;
  }

let is_virtual (r : row) = r.pre = -1

(* A row's parent key, with the virtual root as the parent of the document
   element. *)
let parent_key (r : row) = Option.value r.parent_pre ~default:(-1)

(* Region queries in the pre/post plane (Grust): each axis is a predicate
   over the candidate row given the context row. Although the paper's data
   model stores attributes as tree children, XPath only reaches attribute
   nodes through the attribute axis (or self from an attribute context). *)
let axis_pred axis (ctx : row) (r : row) =
  if r.kind = Attribute && not (axis_reaches_attributes axis) then false
  else
  match axis with
  | Child -> parent_key r = ctx.pre && r.kind = Element && not (is_virtual r)
  | Attribute -> parent_key r = ctx.pre && r.kind = Attribute
  | Descendant -> r.pre > ctx.pre && r.post < ctx.post
  | Descendant_or_self -> r.pre >= ctx.pre && r.post <= ctx.post
  | Parent -> parent_key ctx = r.pre && not (is_virtual ctx)
  | Ancestor -> r.pre < ctx.pre && r.post > ctx.post
  | Ancestor_or_self -> r.pre <= ctx.pre && r.post >= ctx.post
  | Following -> r.pre > ctx.pre && r.post > ctx.post && not (is_virtual r)
  | Preceding -> r.pre < ctx.pre && r.post < ctx.post && not (is_virtual r)
  | Following_sibling ->
    (not (is_virtual r)) && (not (is_virtual ctx)) && parent_key r = parent_key ctx && r.pre > ctx.pre
  | Preceding_sibling ->
    (not (is_virtual r)) && (not (is_virtual ctx)) && parent_key r = parent_key ctx && r.pre < ctx.pre
  | Self -> r.pre = ctx.pre

let reverse_axis = function
  | Ancestor | Ancestor_or_self | Preceding | Preceding_sibling | Parent -> true
  | _ -> false

let test_pred test (r : row) =
  match test with
  | Name n -> r.name = n
  | Any -> not (is_virtual r) (* '*' tests the principal node type *)
  | Node -> true

let string_value (r : row) = Option.value r.value ~default:""

type value = Nodes of row list | Str of string | Num of float | Bool of bool

let to_bool = function
  | Bool b -> b
  | Num f -> f <> 0.0
  | Str s -> s <> ""
  | Nodes ns -> ns <> []

let to_num = function
  | Num f -> f
  | Str s -> (try float_of_string s with Failure _ -> Float.nan)
  | Bool b -> if b then 1.0 else 0.0
  | Nodes [] -> Float.nan
  | Nodes (r :: _) -> ( try float_of_string (string_value r) with Failure _ -> Float.nan)

let compare_values c a b =
  let num_cmp op = op (to_num a) (to_num b) in
  match c with
  | Eq | Neq -> (
    let eq =
      match (a, b) with
      | Nodes ns, Str s | Str s, Nodes ns -> List.exists (fun r -> string_value r = s) ns
      | Nodes ns, Num f | Num f, Nodes ns ->
        List.exists (fun r -> (try float_of_string (string_value r) = f with Failure _ -> false)) ns
      | Nodes xs, Nodes ys ->
        List.exists (fun x -> List.exists (fun y -> string_value x = string_value y) ys) xs
      | Str x, Str y -> x = y
      | Num x, Num y -> x = y
      | x, y -> to_bool x = to_bool y
    in
    match c with Eq -> eq | _ -> not eq)
  | Lt -> num_cmp ( < )
  | Le -> num_cmp ( <= )
  | Gt -> num_cmp ( > )
  | Ge -> num_cmp ( >= )

(* Axis results usually arrive in document order already (by_name always
   does), so one pass checks for strictly increasing pre ranks before
   paying for the sort. *)
let dedup_doc_order rows =
  let rec increasing = function
    | (a : row) :: (b :: _ as rest) -> a.pre < b.pre && increasing rest
    | _ -> true
  in
  if increasing rows then rows
  else begin
    let seen = Hashtbl.create 16 in
    List.filter
      (fun (r : row) ->
        if Hashtbl.mem seen r.pre then false
        else begin
          Hashtbl.replace seen r.pre ();
          true
        end)
      (List.sort (fun (a : row) b -> Int.compare a.pre b.pre) rows)
  end

(* ------------------------------------------------------------------ *)
(* Path optimisation                                                   *)
(* ------------------------------------------------------------------ *)

(* Whether an expression's value can depend on position()/last(). Path
   and Count sub-paths re-scope the position, so they never do. *)
let rec positional_expr = function
  | Position | Last -> true
  | Compare (_, a, b) | And (a, b) | Or (a, b) -> positional_expr a || positional_expr b
  | Not e -> positional_expr e
  | Path _ | Literal _ | Number _ | Count _ -> false

(* A bare number predicate [2] abbreviates [position() = 2]. *)
let positional_pred = function Number _ -> true | e -> positional_expr e

(* Collapse the '//' expansion — descendant-or-self::node()/child::T[ps]
   into descendant::T[ps] — whenever no predicate is positional. The two
   spellings select the same node set (both axes exclude attributes and a
   child of some descendant-or-self node is exactly a descendant), but
   positions differ: the abbreviation numbers candidates per intermediate
   context, the collapsed step numbers them across the whole subtree. The
   collapsed form is what the name index answers in O(occurrences). *)
let rec collapse_steps = function
  | { axis = Descendant_or_self; test = Node; predicates = [] }
    :: ({ axis = Child; _ } as s)
    :: rest
    when not (List.exists positional_pred s.predicates) ->
    collapse_step { s with axis = Descendant } :: collapse_steps rest
  | s :: rest -> collapse_step s :: collapse_steps rest
  | [] -> []

and collapse_step s = { s with predicates = List.map collapse_expr s.predicates }

and collapse_expr = function
  | Path p -> Path (collapse_path p)
  | Count p -> Count (collapse_path p)
  | Compare (c, a, b) -> Compare (c, collapse_expr a, collapse_expr b)
  | And (a, b) -> And (collapse_expr a, collapse_expr b)
  | Or (a, b) -> Or (collapse_expr a, collapse_expr b)
  | Not e -> Not (collapse_expr e)
  | (Literal _ | Number _ | Position | Last) as e -> e

and collapse_path p = { p with steps = collapse_steps p.steps }

(* ------------------------------------------------------------------ *)
(* The evaluation engine                                               *)
(* ------------------------------------------------------------------ *)

(* Either a document scan over a materialised row list (the reference
   semantics) or an axis source (§3.1.1 region queries, backed by the
   batch or the incremental index). *)
type engine =
  | Scan of row list (* virtual root first, then document order *)
  | Src of Axis_source.t

(* Candidate generation through an axis source: each axis is an
   O(log n + answer) lookup instead of a document scan. The virtual
   document node is handled specially — it is not in any index. *)
let source_candidates (src : Axis_source.t) (ctx : row) axis =
  let non_attribute rs = List.filter (fun (r : row) -> r.kind <> Attribute) rs in
  if is_virtual ctx then
    match axis with
    | Child -> [ src.root () ]
    | Descendant -> non_attribute (src.all ())
    | Descendant_or_self -> ctx :: non_attribute (src.all ())
    | Self | Ancestor_or_self -> [ ctx ]
    | Attribute | Parent | Ancestor | Following | Preceding | Following_sibling
    | Preceding_sibling ->
      []
  else
    match axis with
    | Child -> src.children ctx
    | Attribute -> src.attributes ctx
    | Descendant -> non_attribute (src.descendants ctx)
    | Descendant_or_self -> ctx :: non_attribute (src.descendants ctx)
    | Self -> [ ctx ]
    | Parent -> (
      match src.parent ctx with Some p -> [ p ] | None -> [ virtual_root ])
    | Ancestor -> virtual_root :: src.ancestors ctx
    | Ancestor_or_self -> (virtual_root :: src.ancestors ctx) @ [ ctx ]
    | Following -> src.following ctx
    | Preceding -> src.preceding ctx
    | Following_sibling -> src.following_siblings ctx
    | Preceding_sibling -> src.preceding_siblings ctx

(* descendant::name through the name index: O(occurrences of the name)
   instead of O(subtree). by_name is in document order and the subtree
   test is a pre/post region check, so order is preserved. *)
let by_name_descendants (src : Axis_source.t) (ctx : row) name =
  List.filter
    (fun (r : row) ->
      r.kind <> Attribute
      && if is_virtual ctx then not (is_virtual r)
         else r.pre > ctx.pre && r.post < ctx.post)
    (src.by_name name)

let rec eval_path eng (ctx : row) (p : path) =
  let start = if p.absolute then [ virtual_root ] else [ ctx ] in
  let rec go nodes = function
    | [] -> nodes
    | s1 :: s2 :: rest when fusable_pair eng s1 s2 ->
      go (eval_fused_descendant_child eng nodes s2) rest
    | s :: rest -> go (eval_step eng nodes s) rest
  in
  go start p.steps

(* The '//name[k]' positional form cannot be collapsed onto a single
   descendant step (position() is per-parent), but its expansion
   descendant-or-self::node()/child::name[..] doesn't have to materialise
   every node as a context either: child-of-descendant-or-self(c) is
   exactly descendant-of(c), grouped by parent. Fusing the step pair
   turns it into one name-index probe. *)
and fusable_pair eng s1 s2 =
  match eng with
  | Scan _ -> false
  | Src _ -> (
    s1.axis = Descendant_or_self && s1.test = Node && s1.predicates = []
    && s2.axis = Child
    && match s2.test with Name _ -> true | _ -> false)

and eval_fused_descendant_child eng context_nodes step =
  match (eng, step.test) with
  | Src src, Name n ->
    let any_virtual = List.exists is_virtual context_nodes in
    (* a parent qualifies iff it is-or-descends-from some context *)
    let parent_ok (p : row option) =
      match p with
      | None -> any_virtual (* the document element's parent is the virtual root *)
      | Some p ->
        any_virtual
        || List.exists
             (fun (c : row) -> p.pre = c.pre || (p.pre > c.pre && p.post < c.post))
             context_nodes
    in
    let groups = Hashtbl.create 64 in
    let order = ref [] in
    List.iter
      (fun (r : row) ->
        if r.kind <> Attribute then begin
          let p = src.Axis_source.parent r in
          let key = match p with Some p -> p.pre | None -> virtual_root.pre in
          match Hashtbl.find_opt groups key with
          | Some (ok, rs) -> Hashtbl.replace groups key (ok, r :: rs)
          | None ->
            order := key :: !order;
            Hashtbl.replace groups key (parent_ok p, [ r ])
        end)
      (src.Axis_source.by_name n);
    dedup_doc_order
      (List.concat_map
         (fun key ->
           match Hashtbl.find groups key with
           | true, rs -> apply_predicates eng step (List.rev rs)
           | false, _ -> [])
         (List.rev !order))
  | _ -> assert false

and eval_step eng context_nodes step =
  match (eng, step.axis, step.test, step.predicates) with
  | Src src, Descendant, Name n, [] ->
    (* One name-index probe for the whole context set; the per-context
       path below would re-materialise the occurrence list from the
       persistent maps for each context. An occurrence qualifies if some
       context properly contains it — checked by walking its ancestor
       chain against a hash of the context ranks, O(depth) per
       occurrence. Only sound without predicates: position() is
       per-context. *)
    let any_virtual = List.exists is_virtual context_nodes in
    let ctx_pre = Hashtbl.create (List.length context_nodes) in
    List.iter
      (fun (c : row) -> if not (is_virtual c) then Hashtbl.replace ctx_pre c.pre ())
      context_nodes;
    let under_ctx (r : row) =
      any_virtual
      || let rec up node =
           match src.Axis_source.parent node with
           | None -> false
           | Some p -> Hashtbl.mem ctx_pre p.pre || up p
         in
         up r
    in
    dedup_doc_order
      (List.filter (fun (r : row) -> r.kind <> Attribute && under_ctx r) (src.by_name n))
  | Src src, Child, Name n, _ when List.length context_nodes > 8 ->
    (* child::name over a large context set (e.g. the uncollapsed
       positional '//name[k]', whose first step yields every node):
       probe the name index once and group the occurrences by parent
       instead of calling children() per context. Each group is that
       parent's name-matching children in document order, which is
       exactly the per-context candidate list, so position()/last()
       predicates keep their meaning. *)
    let in_ctx = Hashtbl.create (List.length context_nodes) in
    let virtual_ctx = ref false in
    List.iter
      (fun (c : row) ->
        if is_virtual c then virtual_ctx := true else Hashtbl.replace in_ctx c.pre ())
      context_nodes;
    let groups = Hashtbl.create 64 in
    let order = ref [] in
    List.iter
      (fun (r : row) ->
        if r.kind <> Attribute then
          let key =
            match src.Axis_source.parent r with
            | Some p -> p.pre
            | None -> virtual_root.pre
          in
          let wanted =
            if key = virtual_root.pre then !virtual_ctx else Hashtbl.mem in_ctx key
          in
          if wanted then (
            if not (Hashtbl.mem groups key) then order := key :: !order;
            Hashtbl.replace groups key (r :: Option.value (Hashtbl.find_opt groups key) ~default:[])))
      (src.Axis_source.by_name n);
    dedup_doc_order
      (List.concat_map
         (fun key ->
           apply_predicates eng step (List.rev (Hashtbl.find groups key)))
         (List.rev !order))
  | _ -> eval_step_general eng context_nodes step

and eval_step_general eng context_nodes step =
  let from_ctx ctx =
    let candidates =
      match eng with
      | Src src -> (
        match (step.axis, step.test) with
        | Descendant, Name n -> by_name_descendants src ctx n
        | _ ->
          List.filter
            (fun r ->
              (not (r.kind = Attribute && not (axis_reaches_attributes step.axis)))
              && test_pred step.test r)
            (source_candidates src ctx step.axis))
      | Scan all ->
        List.filter (fun r -> axis_pred step.axis ctx r && test_pred step.test r) all
    in
    let ordered =
      if reverse_axis step.axis then List.rev candidates else candidates
    in
    apply_predicates eng step ordered
  in
  dedup_doc_order (List.concat_map from_ctx context_nodes)

(* Each predicate filters with position()/last() relative to the current
   candidate list. *)
and apply_predicates eng step ordered =
  let apply_pred cands pred =
    let last = List.length cands in
    List.filteri
      (fun i r ->
        let v = eval_expr eng r ~position:(i + 1) ~last pred in
        match v with
        | Num f -> f = float_of_int (i + 1) (* [2] means position()=2 *)
        | v -> to_bool v)
      cands
  in
  List.fold_left apply_pred ordered step.predicates

and eval_expr eng ctx ~position ~last = function
  | Path p -> Nodes (eval_path eng ctx p)
  | Literal s -> Str s
  | Number f -> Num f
  | Compare (c, a, b) ->
    Bool
      (compare_values c
         (eval_expr eng ctx ~position ~last a)
         (eval_expr eng ctx ~position ~last b))
  | And (a, b) ->
    Bool
      (to_bool (eval_expr eng ctx ~position ~last a)
      && to_bool (eval_expr eng ctx ~position ~last b))
  | Or (a, b) ->
    Bool
      (to_bool (eval_expr eng ctx ~position ~last a)
      || to_bool (eval_expr eng ctx ~position ~last b))
  | Not e -> Bool (not (to_bool (eval_expr eng ctx ~position ~last e)))
  | Position -> Num (float_of_int position)
  | Last -> Num (float_of_int last)
  | Count p -> Num (float_of_int (List.length (eval_path eng ctx p)))

let eval_from eng root p =
  List.filter (fun r -> not (is_virtual r)) (dedup_doc_order (eval_path eng root p))

let eval_src_ast src (p : ast) = eval_from (Src src) (src.Axis_source.root ()) (collapse_path p)

let eval_src src q = eval_src_ast src (parse q)

(* The document-scan evaluator over an explicit row list: every axis as a
   filter over all rows. The reference implementation the source-backed
   engine is checked against (notably by the server's --paranoid mode,
   which re-runs every served answer through it), and the baseline of the
   region-query benchmark. Runs the AST as written — no collapse — so the
   two engines take genuinely different routes to the same answer. *)
let eval_scan_rows all_rows (p : ast) =
  match all_rows with
  | [] -> []
  | root :: _ -> eval_from (Scan (virtual_root :: all_rows)) root p

let eval_ast enc (p : ast) =
  eval_src_ast (Axis_source.of_index (Axis_index.build enc)) p

let eval enc src = eval_ast enc (parse src)

let eval_scan_ast enc (p : ast) = eval_scan_rows (rows enc) p

let eval_scan enc src = eval_scan_ast enc (parse src)

let collapse = collapse_path

(* Re-evaluation against a prebuilt index, for callers issuing many
   queries over one encoding. *)
let eval_indexed enc idx src =
  ignore enc;
  eval_src_ast (Axis_source.of_index idx) (parse src)
