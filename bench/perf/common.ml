(* Helpers shared by every workload: the monotonic clock, order
   statistics, /proc readings and the run's scratch directory. *)

let now_s () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

let time f =
  let t0 = now_s () in
  let v = f () in
  (v, now_s () -. t0)

(* Linear interpolation between closest ranks (numpy's default), on an
   already sorted array. *)
let quantile_sorted a q =
  let n = Array.length a in
  if n = 0 then 0.0
  else
    let pos = q *. float_of_int (n - 1) in
    let i = int_of_float (Float.floor pos) in
    let j = min (n - 1) (i + 1) in
    a.(i) +. ((pos -. float_of_int i) *. (a.(j) -. a.(i)))

let sorted a =
  let s = Array.copy a in
  Array.sort Float.compare s;
  s

let quantile a q = quantile_sorted (sorted a) q
let median l = quantile (Array.of_list l) 0.5
let sum a = Array.fold_left ( +. ) 0.0 a

let ratio a b = if b > 0.0 then a /. b else 0.0

(* --- /proc --------------------------------------------------------------- *)

(* Read to end of file rather than by length: /proc files report none. *)
let read_file path = In_channel.with_open_bin path In_channel.input_all
let read_lines path = String.split_on_char '\n' (read_file path)

(* Peak resident set (VmHWM) of a process, in MiB. *)
let peak_rss_mb pid =
  let line =
    List.find
      (fun l -> String.length l > 6 && String.sub l 0 6 = "VmHWM:")
      (read_lines (Printf.sprintf "/proc/%s/status" pid))
  in
  Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.0)

(* CPU seconds of a process's live threads: the first field of each
   /proc/PID/task/TID/schedstat, in nanoseconds.  On a guest with
   paravirtual steal accounting this leaves out the time the host ran
   something else. *)
let cpu_s pid =
  let dir = Printf.sprintf "/proc/%d/task" pid in
  Array.fold_left
    (fun acc tid ->
      match read_file (Filename.concat (Filename.concat dir tid) "schedstat") with
      | s -> acc +. (float_of_string (List.hd (String.split_on_char ' ' s)) *. 1e-9)
      | exception Sys_error _ -> acc)
    0.0 (Sys.readdir dir)

let file_size path = (Unix.stat path).Unix.st_size

(* Every file a run writes lives here, inside the checkout. *)
let out_dir = Filename.concat "bench" (Filename.concat "perf" "_out")

let ensure_out_dir () = if not (Sys.file_exists out_dir) then Unix.mkdir out_dir 0o755

let out_path name = Filename.concat out_dir (Printf.sprintf "%s-%d" name (Unix.getpid ()))
let remove_if_exists path = if Sys.file_exists path then Sys.remove path

(* --- results ------------------------------------------------------------- *)

type metric = { name : string; value : float; unit_ : string }

let m name unit_ value = { name; value; unit_ }

type result = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : metric list;
}

(* A failed correctness check: reported on stderr, and the run's
   result is marked incorrect. *)
let check ok what =
  if not ok then Printf.eprintf "perf: CHECK FAILED: %s\n%!" what;
  ok

let log fmt = Printf.ksprintf (fun s -> Printf.eprintf "perf: %s\n%!" s) fmt
