(* Trace sinks: where finished spans go.

   The default is [null] — emitting to it is a single indirect call that
   does nothing, so instrumentation can stay on unconditionally.  The
   console sink pretty-prints through [Logs] (level App, so it shows even
   without -v once a reporter is installed); [tee] fans one stream out to
   two sinks (console + recorder).  Recording events and writing them to
   a trace file is [Webdep_prof]'s job.

   Spans may finish on any domain, so the console sink serializes its
   writes through a lock — each emitted line is atomic with respect to
   other domains. *)

(* GC-counter movement across a span: minor/promoted/major words are the
   allocation story ([Gc.quick_stat] deltas, so words not bytes), major
   collections say whether the span paid for a full marking cycle. *)
type gc_delta = {
  minor_words : float;
  promoted_words : float;
  major_words : float;
  major_collections : int;
}

let zero_gc =
  { minor_words = 0.0; promoted_words = 0.0; major_words = 0.0; major_collections = 0 }

type event = {
  name : string;
  attrs : (string * string) list;
  start_s : float;  (* seconds since process start *)
  duration_s : float;
  depth : int;  (* nesting depth at span entry, outermost = 0 *)
  lane : int;  (* emitting lane: pool worker index, or the raw domain id *)
  gc : gc_delta;  (* GC counter movement while the span was open *)
}

type t = { emit : event -> unit }

let null = { emit = ignore }

let active = ref null
let set t = active := t
let current () = !active
let emit ev = (!active).emit ev

(* Run [f] with [t] installed, restoring the previous sink afterwards. *)
let with_sink t f =
  let prev = !active in
  set t;
  Fun.protect ~finally:(fun () -> active := prev) f

(* Every event goes to [a] then [b]. *)
let tee a b = { emit = (fun ev -> a.emit ev; b.emit ev) }

(* --- console ----------------------------------------------------------- *)

let pp_duration ppf s =
  if s >= 1.0 then Fmt.pf ppf "%.2fs" s
  else if s >= 1e-3 then Fmt.pf ppf "%.2fms" (s *. 1e3)
  else Fmt.pf ppf "%.0fus" (s *. 1e6)

let pp_attrs ppf = function
  | [] -> ()
  | attrs ->
      Fmt.pf ppf " {%a}"
        (Fmt.list ~sep:(Fmt.any ", ") (fun ppf (k, v) -> Fmt.pf ppf "%s=%s" k v))
        attrs

let console () =
  let lock = Mutex.create () in
  {
    emit =
      (fun ev ->
        Mutex.protect lock (fun () ->
            Logs.app (fun m ->
                m "%*sspan %-28s %a%a" (2 * ev.depth) "" ev.name pp_duration ev.duration_s
                  pp_attrs ev.attrs)));
  }
