(* In-memory span recorder for the traced replay. A span is (request,
   name, parent, start, stop); spans nest through a stack, so a span's
   parent is whichever span was open when it began, and every span of one
   request shares the request's id. Nothing is written out until the
   replay ends. A disabled recorder only runs the wrapped calls — the
   untraced replay the tracing overhead is measured against. *)

let now () = Int64.to_int (Monotonic_clock.now ())

type t = {
  enabled : bool;
  names : (string, int) Hashtbl.t;
  mutable name_of : string array;
  mutable n : int;
  mutable s_req : int array;
  mutable s_name : int array;
  mutable s_parent : int array;
  mutable s_t0 : int array;
  mutable s_t1 : int array;
  mutable stack : int list;
  mutable req : int;
  req_class : (int, string) Hashtbl.t;
}

let create ~enabled =
  {
    enabled;
    names = Hashtbl.create 32;
    name_of = [||];
    n = 0;
    s_req = Array.make 1024 0;
    s_name = Array.make 1024 0;
    s_parent = Array.make 1024 0;
    s_t0 = Array.make 1024 0;
    s_t1 = Array.make 1024 0;
    stack = [];
    req = -1;
    req_class = Hashtbl.create 1024;
  }

let grow a = Array.append a (Array.make (Array.length a) 0)

let name_id t name =
  match Hashtbl.find_opt t.names name with
  | Some i -> i
  | None ->
    let i = Hashtbl.length t.names in
    Hashtbl.add t.names name i;
    t.name_of <- Array.append t.name_of [| name |];
    i

let push t name ~t0 ~t1 =
  if t.n = Array.length t.s_req then begin
    t.s_req <- grow t.s_req;
    t.s_name <- grow t.s_name;
    t.s_parent <- grow t.s_parent;
    t.s_t0 <- grow t.s_t0;
    t.s_t1 <- grow t.s_t1
  end;
  let i = t.n in
  t.s_req.(i) <- t.req;
  t.s_name.(i) <- name_id t name;
  t.s_parent.(i) <- (match t.stack with p :: _ -> p | [] -> -1);
  t.s_t0.(i) <- t0;
  t.s_t1.(i) <- t1;
  t.n <- i + 1;
  i

(* Start a new request: later spans carry its id and class. *)
let request t cls =
  t.req <- t.req + 1;
  if t.enabled then Hashtbl.replace t.req_class t.req cls

let span t name f =
  if not t.enabled then f ()
  else begin
    let i = push t name ~t0:(now ()) ~t1:0 in
    t.stack <- i :: t.stack;
    let finish () =
      t.s_t1.(i) <- now ();
      t.stack <- List.tl t.stack
    in
    match f () with
    | v ->
      finish ();
      v
    | exception e ->
      finish ();
      raise e
  end

(* A child of the open span covering the last [ns] nanoseconds: work a
   layer reports about itself (the index's maintenance clock) rather than
   work the replay can wrap. *)
let account t name ~ns =
  if t.enabled && ns > 0 then begin
    let t1 = now () in
    ignore (push t name ~t0:(t1 - ns) ~t1)
  end

type agg = { mutable count : int; mutable self_ns : int }

(* Self time per span, summed by (request class, span name). *)
let by_class t =
  let children = Array.make t.n [] in
  for i = t.n - 1 downto 0 do
    let p = t.s_parent.(i) in
    if p >= 0 then children.(p) <- (t.s_t0.(i), t.s_t1.(i)) :: children.(p)
  done;
  let out = Hashtbl.create 64 in
  for i = 0 to t.n - 1 do
    let self = Pstat.self_time ~start:t.s_t0.(i) ~stop:t.s_t1.(i) children.(i) in
    let cls = Option.value (Hashtbl.find_opt t.req_class t.s_req.(i)) ~default:"" in
    let key = (cls, t.name_of.(t.s_name.(i))) in
    match Hashtbl.find_opt out key with
    | Some a ->
      a.count <- a.count + 1;
      a.self_ns <- a.self_ns + self
    | None -> Hashtbl.add out key { count = 1; self_ns = self }
  done;
  out

(* The same, summed over classes. *)
let by_name t =
  let out = Hashtbl.create 32 in
  Hashtbl.iter
    (fun (_, name) a ->
      match Hashtbl.find_opt out name with
      | Some b ->
        b.count <- b.count + a.count;
        b.self_ns <- b.self_ns + a.self_ns
      | None -> Hashtbl.add out name { count = a.count; self_ns = a.self_ns })
    (by_class t);
  out
