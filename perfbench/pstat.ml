(* Statistics the benchmark reports: the percentile rule, rate-ladder
   arithmetic, backlog growth and span self time. Pure functions over
   arrays, so the self-tests pin them down without a server. *)

(* ---- percentiles ---------------------------------------------------

   Nearest-rank: the q-quantile of n sorted samples is the sample at rank
   ceil(q n) (1-based). A percentile is reported only when at least ten
   samples lie beyond it; otherwise the next lower candidate is used, and
   the caller prints which one it got together with the sample count. *)

let candidates = [ 0.999; 0.99; 0.9; 0.5 ]

let rank ~n q = max 1 (min n (int_of_float (Float.ceil ((q *. float_of_int n) -. 1e-9))))

let beyond ~n q = n - rank ~n q

let supported ~n q = q <= 0.5 || beyond ~n q >= 10

(* [tail_q ~n nominal]: the highest candidate at or below [nominal] that
   has ten samples beyond it (0.5 when nothing higher qualifies). *)
let tail_q ~n nominal =
  match List.find_opt (fun q -> q <= nominal +. 1e-12 && supported ~n q) candidates with
  | Some q -> q
  | None -> 0.5

let quantile sorted q =
  let n = Array.length sorted in
  if n = 0 then nan else sorted.(rank ~n q - 1)

let sorted_of a =
  let s = Array.copy a in
  Array.sort compare s;
  s

let median a = quantile (sorted_of a) 0.5

let max_windows = 32

(* [(q, v)]: the tail of [samples] (in arrival order) at [nominal]. With
   enough samples it is the median, over up to [max_windows] consecutive
   windows, of each window's own [nominal] percentile, every window large
   enough to keep ten samples beyond it: one stall moves one window's
   tail, not the median. With fewer samples it is the plain tail under
   the ten-beyond rule, at the percentile [q] that rule allows. *)
let windowed_tail samples nominal =
  let n = Array.length samples in
  let need = int_of_float (Float.ceil (10. /. (1. -. nominal) -. 1e-9)) in
  let w = min max_windows (n / need) in
  if w < 2 then
    let q = tail_q ~n nominal in
    (q, quantile (sorted_of samples) q)
  else
    let per = n / w in
    (nominal, median (Array.init w (fun i -> quantile (sorted_of (Array.sub samples (i * per) per)) nominal)))

(* ---- the rate ladder ------------------------------------------------

   Offered rates are fixed points [base * 2^(j/steps)]: the ladder is the
   same on every run and every commit, and a rung is named by [j]. *)

let rung_rate ~base ~steps j = base *. (2. ** (float_of_int j /. float_of_int steps))

(* Galloping search for the highest passing rung, assuming a rung passes
   whenever a higher one does: probe [start]; while it passes, jump up by
   [gallop] rungs (down while it fails), then bisect the bracket. [probe]
   runs one rung and says whether it met every condition. Returns the
   highest passing rung ([lo - 1] when even [lo] failed) and the probes
   run, in order. *)
let search ~lo ~hi ~start ~gallop ~max_probes probe =
  let tried = ref [] in
  let run j =
    let ok = probe j in
    tried := (j, ok) :: !tried;
    ok
  in
  let budget () = List.length !tried < max_probes in
  (* [pass] passed (or is lo-1), [fail] failed (or is hi+1) *)
  let rec bisect pass fail =
    if fail - pass <= 1 || not (budget ()) then pass
    else
      let mid = (pass + fail) / 2 in
      if run mid then bisect mid fail else bisect pass mid
  in
  let rec up pass =
    let next = min hi (pass + gallop) in
    if next = pass || not (budget ()) then pass
    else if run next then up next
    else bisect pass next
  in
  let rec down fail =
    let next = max lo (fail - gallop) in
    if next = fail then lo - 1
    else if not (budget ()) then lo - 1
    else if run next then bisect next fail
    else if next = lo then lo - 1
    else down next
  in
  let best = if run start then up start else down start in
  (best, List.rev !tried)

(* ---- backlog growth --------------------------------------------------

   [pts] are (seconds, requests due but not yet answered) samples taken
   through one rate step. Below capacity the backlog hovers around
   rate x latency; past it, it climbs by the excess rate. The backlog
   grows when the least-squares slope over the step after its first fifth
   (the ramp) exceeds 5% of the offered rate. *)

let slope pts =
  let n = Array.length pts in
  if n < 2 then 0.
  else
    let fn = float_of_int n in
    let sx = ref 0. and sy = ref 0. in
    Array.iter
      (fun (x, y) ->
        sx := !sx +. x;
        sy := !sy +. y)
      pts;
    let mx = !sx /. fn and my = !sy /. fn in
    let num = ref 0. and den = ref 0. in
    Array.iter
      (fun (x, y) ->
        num := !num +. ((x -. mx) *. (y -. my));
        den := !den +. ((x -. mx) *. (x -. mx)))
      pts;
    if !den = 0. then 0. else !num /. !den

let backlog_grows ~rate pts =
  let n = Array.length pts in
  let tail = Array.sub pts (n / 5) (n - (n / 5)) in
  Array.length tail >= 8 && slope tail > 0.05 *. rate

(* ---- span self time --------------------------------------------------

   A span's self time is its duration minus the part of its interval that
   its child spans cover; children may overlap each other, so their
   clipped intervals are merged before summing. *)

let covered ~start ~stop children =
  let clipped =
    List.filter_map
      (fun (a, b) ->
        let a = max a start and b = min b stop in
        if b > a then Some (a, b) else None)
      children
    |> List.sort compare
  in
  let total, last =
    List.fold_left
      (fun (total, cur) (a, b) ->
        match cur with
        | None -> (total, Some (a, b))
        | Some (ca, cb) ->
          if a <= cb then (total, Some (ca, max cb b)) else (total + (cb - ca), Some (a, b)))
      (0, None) clipped
  in
  match last with None -> total | Some (a, b) -> total + (b - a)

let self_time ~start ~stop children = stop - start - covered ~start ~stop children
