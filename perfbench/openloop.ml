(* The open-loop load generator: one thread, one connection per document,
   requests sent on a fixed schedule whatever the server is doing.

   Request k of a step is due at t0 + k/rate and goes to connection
   k mod n. Its latency runs from that due time, not from when it was
   written, so a stall shows in the latency of every request queued
   behind it (no coordinated omission). Requests are pipelined; replies
   are matched per reply group (see {!Twin}). Back-pressure has two
   forms, and a request held back by either is simply late, its lateness
   in its latency:
   - a cap on requests in flight per connection, which keeps the server
     below its overload-shedding bounds;
   - by default, at most one mutation in flight per connection. Under
     pipelined mutations the server can send a mutation reply before
     an earlier parked one of the same connection (its flusher sends the
     replies it has released after dropping the lock the loop's
     direct-send check reads), and the protocol has nothing else to
     match a reply to its request by. [~pipeline_mutations:true] lifts
     the rule, which shows that defect. *)

module P = Repro_server.Protocol
module W = Repro_server.Wire

exception Peer_failed of string

(* Acknowledge received replies at once. Without it the generator's kernel
   may delay its ACKs, and the server, which leaves Nagle's algorithm on,
   then holds each small reply until the generator's next request carries
   the ACK: reply latency would follow the send schedule and the kernel's
   delayed-ACK heuristics rather than the server. *)
external quickack : Unix.file_descr -> unit = "perfbench_quickack" [@@noalloc]

type peer = {
  fd : Unix.file_descr;
  frames : string array;  (** the stream, pre-framed *)
  groups : int array;  (** reply group of each stream item *)
  mutable next : int;  (** next stream item to send *)
  dec : W.Decoder.t;
  out : Buffer.t;  (** framed bytes the socket has not taken yet *)
  waiting : int Queue.t array;  (** per reply group: step request indices, in send order *)
  mutable inflight : int;
  mutable mut_acked : int;  (** mutation-group replies received so far *)
}

let peer fd ~frames ~groups =
  {
    fd;
    frames;
    groups;
    next = 0;
    dec = W.Decoder.create ();
    out = Buffer.create 4096;
    waiting = Array.init Twin.n_queues (fun _ -> Queue.create ());
    inflight = 0;
    mut_acked = 0;
  }

type step = {
  rate : float;
  t0_ns : int;  (** due time of request 0, on the {!Span.now} clock *)
  planned : int;
  sent : int;
  lat_ns : int array;  (** per request, from its due time; -1 if unanswered *)
  late_ns : int array;
      (** per request: write time minus its due time, or minus the end of
          the hold that kept it back if that is later — the generator's
          own lateness *)
  ok : bool array;
  who : int array;  (** connection of each request *)
  item : int array;  (** stream index of each request on its connection *)
  backlog : (float * float) array;  (** (seconds, requests due and unanswered) *)
  aborted : bool;  (** stopped sending: the latency limit was already lost *)
}

(* ---- blocking round trips, for set-up and scraping -------------------- *)

let read_frame fd dec buf =
  let rec go () =
    match W.Decoder.next dec with
    | `Frame payload -> payload
    | `Bad reason -> raise (Peer_failed ("torn reply: " ^ reason))
    | `More ->
      let n = Unix.read fd buf 0 (Bytes.length buf) in
      if n = 0 then raise (Peer_failed "server closed the connection");
      W.Decoder.feed dec buf 0 n;
      go ()
  in
  go ()

let call fd req =
  let s = W.frame (P.encode_req req) in
  let rec write off = if off < String.length s then write (off + Unix.write_substring fd s off (String.length s - off)) in
  write 0;
  match P.decode_resp (read_frame fd (W.Decoder.create ()) (Bytes.create 65536)) with
  | Ok resp -> resp
  | Error e -> raise (Peer_failed ("undecodable reply: " ^ e))

let connect port =
  let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt fd Unix.TCP_NODELAY true;
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  fd

(* ---- one rate step ---------------------------------------------------- *)

let sample_every_ns = 5_000_000

(* requests in flight per connection: 2 x 1024 stays below the server's
   4096-reply park bound, so a correct server never sheds our load *)
let window = 1024

(* a step whose replies stop for this long has lost its server *)
let drain_s = 60.

(* Send [count] requests at [rate] per second across [peers], continuing
   each peer's stream, and wait for every reply. [on_reply] checks one
   reply; [lo] is how many mutation replies that connection had received
   when the request was sent. Once more than 51% of the requests have
   exceeded [limit_ns], more than half of any split of the step into
   equal windows has lost its p99 too: sending stops and the step only
   drains. *)
let run_step ?(limit_ns = max_int) ?(pipeline_mutations = false) peers ~rate ~count ~on_reply =
  let np = Array.length peers in
  let period = 1e9 /. rate in
  let lat_ns = Array.make count (-1) and late_ns = Array.make count 0 in
  let ok = Array.make count false and who = Array.make count 0 in
  let item = Array.make count 0 and lo = Array.make count 0 in
  let t0 = Span.now () + 1_000_000 in
  let due k = t0 + int_of_float (float_of_int k *. period) in
  let sent = ref 0 and answered = ref 0 and over = ref 0 and aborted = ref false in
  let allow = count * 51 / 100 in
  let samples = ref [] and next_sample = ref t0 in
  let last_reply = ref (Span.now ()) in
  let buf = Bytes.create 65536 in
  Array.iter (fun p -> Unix.set_nonblock p.fd) peers;
  (* [holding]: sending stopped at a held request; [released]: the last
     reply that came while it was, which may have ended the hold *)
  let holding = ref false and released = ref min_int in
  let complete k payload resp =
    let now = Span.now () in
    last_reply := now;
    if !holding then begin
      holding := false;
      released := now
    end;
    lat_ns.(k) <- now - due k;
    if lat_ns.(k) > limit_ns then incr over;
    ok.(k) <- on_reply ~peer:who.(k) ~item:item.(k) ~lo:lo.(k) payload resp;
    incr answered
  in
  (* a reply outside every group (an error) is charged to the oldest
     request still waiting *)
  let oldest p =
    Array.fold_left
      (fun best q ->
        match (Queue.peek_opt q, best) with
        | Some k, Some (b, _) when k >= b -> best
        | Some k, _ -> Some (k, q)
        | None, _ -> best)
      None p.waiting
  in
  let on_frame p payload =
    let resp =
      match P.decode_resp payload with
      | Ok r -> r
      | Error e -> raise (Peer_failed ("undecodable reply: " ^ e))
    in
    let q =
      match Twin.queue_of_resp resp with
      | Some g when not (Queue.is_empty p.waiting.(g)) -> Some p.waiting.(g)
      | _ -> Option.map snd (oldest p)
    in
    match q with
    | None -> raise (Peer_failed "reply to no outstanding request")
    | Some q ->
      let k = Queue.pop q in
      if q == p.waiting.(Twin.q_mut) then p.mut_acked <- p.mut_acked + 1;
      p.inflight <- p.inflight - 1;
      complete k payload resp
  in
  let held p =
    p.inflight >= window
    || (not pipeline_mutations)
       && p.groups.(p.next) = Twin.q_mut
       && not (Queue.is_empty p.waiting.(Twin.q_mut))
  in
  let send_due now =
    let continue = ref true in
    while !continue && !sent < count && (not !aborted) && due !sent <= now do
      let k = !sent in
      let pi = k mod np in
      let p = peers.(pi) in
      if held p then begin
        holding := true;
        continue := false
      end
      else begin
        let i = p.next in
        p.next <- i + 1;
        who.(k) <- pi;
        item.(k) <- i;
        lo.(k) <- p.mut_acked;
        Buffer.add_string p.out p.frames.(i);
        Queue.push k p.waiting.(p.groups.(i));
        p.inflight <- p.inflight + 1;
        late_ns.(k) <- now - max (due k) !released;
        incr sent
      end
    done
  in
  let flush p =
    let len = Buffer.length p.out in
    if len > 0 then
      match Unix.write_substring p.fd (Buffer.contents p.out) 0 len with
      | n ->
        let rest = Buffer.sub p.out n (len - n) in
        Buffer.clear p.out;
        Buffer.add_string p.out rest
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
  in
  let receive p =
    match Unix.read p.fd buf 0 (Bytes.length buf) with
    | 0 -> raise (Peer_failed "server closed the connection")
    | n ->
      quickack p.fd;
      W.Decoder.feed p.dec buf 0 n;
      let rec pump () =
        match W.Decoder.next p.dec with
        | `More -> ()
        | `Bad reason -> raise (Peer_failed ("torn reply: " ^ reason))
        | `Frame payload ->
          on_frame p payload;
          pump ()
      in
      pump ()
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
  in
  let sending () = !sent < count && not !aborted in
  while sending () || !answered < !sent do
    let now = Span.now () in
    if sending () then send_due now;
    Array.iter flush peers;
    if now >= !next_sample then begin
      let d =
        if !aborted then !sent
        else min count (max 0 (((now - t0) / max 1 (int_of_float period)) + 1))
      in
      samples := (float_of_int (now - t0) /. 1e9, float_of_int (d - !answered)) :: !samples;
      next_sample := !next_sample + sample_every_ns
    end;
    if !over > allow then aborted := true;
    if float_of_int (now - !last_reply) /. 1e9 > drain_s && !answered < !sent then
      raise (Peer_failed (Printf.sprintf "no reply for %.0f s" drain_s));
    let wait_ns =
      if sending () && not (held peers.(!sent mod np)) then max 0 (due !sent - now)
      else 2_000_000
    in
    let timeout = float_of_int (min wait_ns 2_000_000) /. 1e9 in
    let writers =
      Array.fold_left (fun acc p -> if Buffer.length p.out > 0 then p.fd :: acc else acc) [] peers
    in
    let readers = Array.fold_left (fun acc p -> p.fd :: acc) [] peers in
    match Unix.select readers writers [] timeout with
    | r, _, _ -> Array.iter (fun p -> if List.memq p.fd r then receive p) peers
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  done;
  Array.iter (fun p -> Unix.clear_nonblock p.fd) peers;
  {
    rate;
    t0_ns = t0;
    planned = count;
    sent = !sent;
    lat_ns;
    late_ns;
    ok;
    who;
    item;
    backlog = Array.of_list (List.rev !samples);
    aborted = !aborted;
  }

(* The due time of a step's request [k], as [run_step] scheduled it. *)
let due st k = st.t0_ns + int_of_float (float_of_int k *. (1e9 /. st.rate))
