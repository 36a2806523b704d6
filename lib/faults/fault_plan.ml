(* Deterministic, seed-driven fault assignment.  Every decision is a
   pure hash of (plan seed, channel, key, attempt): no mutable RNG state
   is consumed, so the verdict for a given query is independent of the
   order queries run in — the property that keeps a faulted sweep
   byte-identical at any --jobs and lets a retry re-ask the same
   question with only the attempt number changed. *)

type kind =
  | Dns_timeout
  | Dns_servfail
  | Dns_refused
  | Tls_truncated
  | Tls_failed

(* One injection counter per kind, bound at module load so the metric
   names are present (at zero) in every --metrics export. *)
let m_dns_timeout = Webdep_obs.Metrics.counter "fault.injected.dns_timeout"
let m_dns_servfail = Webdep_obs.Metrics.counter "fault.injected.dns_servfail"
let m_dns_refused = Webdep_obs.Metrics.counter "fault.injected.dns_refused"
let m_tls_truncated = Webdep_obs.Metrics.counter "fault.injected.tls_truncated"
let m_tls_failed = Webdep_obs.Metrics.counter "fault.injected.tls_failed"

let injected_counter = function
  | Dns_timeout -> m_dns_timeout
  | Dns_servfail -> m_dns_servfail
  | Dns_refused -> m_dns_refused
  | Tls_truncated -> m_tls_truncated
  | Tls_failed -> m_tls_failed

type t = {
  rate : float;
  recover_after : int;
  permanent_fraction : float;
  plan_seed : int;
  state : int64;  (* mixed seed, folded into every hash *)
  enabled : bool;
}

(* SplitMix64 finalizer (same constants as Webdep_stats.Rng). *)
let mix64 z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let disabled =
  { rate = 0.0; recover_after = 1; permanent_fraction = 0.0; plan_seed = 0;
    state = 0L; enabled = false }

let make ?(rate = 0.05) ?(recover_after = 3) ?(permanent_fraction = 0.1) ~seed () =
  if rate < 0.0 || rate > 1.0 then
    invalid_arg "Fault_plan.make: rate must be within [0, 1]";
  { rate; recover_after = Stdlib.max 1 recover_after;
    permanent_fraction = Float.max 0.0 (Float.min 1.0 permanent_fraction);
    plan_seed = seed; state = mix64 (Int64.of_int seed); enabled = true }

let enabled t = t.enabled
let rate t = t.rate
let seed t = t.plan_seed

(* FNV-1a over tag and key, folded with the plan state, finalized. *)
let hash64 t tag key =
  let h = ref 0xCBF29CE484222325L in
  let fold s =
    String.iter
      (fun c ->
        h := Int64.logxor !h (Int64.of_int (Char.code c));
        h := Int64.mul !h 0x100000001B3L)
      s
  in
  fold tag;
  fold "\x1f";  (* separator: ("ab","c") must not collide with ("a","bc") *)
  fold key;
  mix64 (Int64.logxor t.state !h)

let u01 t tag key =
  Int64.to_float (Int64.shift_right_logical (hash64 t tag key) 11)
  /. 9007199254740992.0 (* 2^53 *)

let pick_int t tag key bound =
  Int64.to_int (Int64.rem (Int64.shift_right_logical (hash64 t tag key) 2) (Int64.of_int bound))

type verdict = No_fault | Fault of kind

(* A key is faulty with probability [rate].  A faulty key is either
   permanent (fraction [permanent_fraction]) or transient with a
   duration of 1..recover_after attempts, after which the simulated
   server has recovered and answers normally. *)
let faulty t key = t.enabled && t.rate > 0.0 && u01 t "roll" key < t.rate

let active t key ~attempt =
  faulty t key
  && ((t.permanent_fraction > 0.0 && u01 t "perm" key < t.permanent_fraction)
      || attempt < 1 + pick_int t "dur" key t.recover_after)

let verdict t ~kinds ~key ~attempt =
  if not (active t key ~attempt) then No_fault
  else begin
    let kind = List.nth kinds (pick_int t "kind" key (List.length kinds)) in
    Webdep_obs.Metrics.incr (injected_counter kind);
    Fault kind
  end

let dns_key ~vantage ~qname = "dns|" ^ vantage ^ "|" ^ qname

let dns_fault t ~vantage ~qname ~attempt =
  if not t.enabled then No_fault
  else
    verdict t ~kinds:[ Dns_timeout; Dns_servfail; Dns_refused ]
      ~key:(dns_key ~vantage ~qname) ~attempt

let tls_fault t ~sni ~attempt =
  if not t.enabled then No_fault
  else verdict t ~kinds:[ Tls_truncated; Tls_failed ] ~key:("tls|" ^ sni) ~attempt

let dns_faulty t ~vantage ~qname = faulty t (dns_key ~vantage ~qname)
let tls_faulty t ~sni = faulty t ("tls|" ^ sni)
