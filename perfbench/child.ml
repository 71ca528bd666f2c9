(* The server under test, as a child process with its default
   configuration: [xmlrepro serve] on an ephemeral port, journals under a
   directory of its own. Every child is stopped and reaped before the
   benchmark exits, also when it fails. *)

type t = { pid : int; root : string; port : int }

let live : t list ref = ref []

let rec rm_rf path =
  try
    match Unix.lstat path with
    | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
    | _ -> Unix.unlink path
  with Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let rec dir_bytes path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.fold_left (fun acc f -> acc + dir_bytes (Filename.concat path f)) 0 (Sys.readdir path)
  | { Unix.st_size; _ } -> st_size
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> 0

let reap pid =
  let rec go () =
    match Unix.waitpid [] pid with
    | _ -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
    | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
  in
  go ()

let forget t = live := List.filter (fun c -> c.pid <> t.pid) !live

let kill t =
  (try Unix.kill t.pid Sys.sigkill with Unix.Unix_error _ -> ());
  reap t.pid;
  forget t

(* SIGINT drains: parked replies released, every journal checkpointed. *)
let stop t =
  (try Unix.kill t.pid Sys.sigint with Unix.Unix_error _ -> ());
  let deadline = Unix.gettimeofday () +. 30. in
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] t.pid with
    | 0, _ when Unix.gettimeofday () < deadline ->
      Unix.sleepf 0.005;
      wait ()
    | 0, _ -> kill t
    | _ -> forget t
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
  in
  wait ()

let () = at_exit (fun () -> List.iter kill !live)

let spawn ~exe ~root =
  rm_rf root;
  mkdir_p root;
  let port_file = root ^ ".port" in
  (try Unix.unlink port_file with Unix.Unix_error _ -> ());
  let null = Unix.openfile "/dev/null" [ Unix.O_RDWR; Unix.O_CLOEXEC ] 0 in
  let pid =
    Unix.create_process exe
      [| exe; "serve"; "--port"; "0"; "--root"; root; "--port-file"; port_file |]
      null null null
  in
  Unix.close null;
  let deadline = Unix.gettimeofday () +. 60. in
  let rec port () =
    let read () =
      match In_channel.with_open_text port_file In_channel.input_all with
      | s when String.ends_with ~suffix:"\n" s -> int_of_string_opt (String.trim s)
      | _ -> None
      | exception Sys_error _ -> None
    in
    match read () with
    | Some p when p > 0 -> p
    | _ ->
      (match Unix.waitpid [ Unix.WNOHANG ] pid with
      | 0, _ -> ()
      | _ -> failwith "server exited during start-up");
      if Unix.gettimeofday () > deadline then begin
        (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
        reap pid;
        failwith "server did not report its port"
      end;
      Unix.sleepf 0.001;
      port ()
  in
  let t = { pid; root; port = port () } in
  live := t :: !live;
  t

(* Peak resident set (VmHWM) of the child, in MB. *)
let peak_rss_mb t =
  let lines =
    In_channel.with_open_text (Printf.sprintf "/proc/%d/status" t.pid) In_channel.input_lines
  in
  match List.find_opt (String.starts_with ~prefix:"VmHWM:") lines with
  | Some l -> Scanf.sscanf l "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.)
  | None -> nan
