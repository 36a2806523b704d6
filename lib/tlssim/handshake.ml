type t = { by_domain : (string, Cert.t) Hashtbl.t }

let create ?(certs = 16) () = { by_domain = Hashtbl.create certs }

let install t ~domain cert = Hashtbl.replace t.by_domain domain cert

let handshake ?(faults = Webdep_faults.Fault_plan.disabled) ?(attempt = 0) t
    ~addr:_ ~sni =
  match Webdep_faults.Fault_plan.tls_fault faults ~sni ~attempt with
  | Webdep_faults.Fault_plan.Fault _ ->
      (* Truncated or rejected mid-flight: no certificate observed. *)
      None
  | Webdep_faults.Fault_plan.No_fault -> (
      match Hashtbl.find_opt t.by_domain sni with
      | Some cert when Cert.covers cert sni -> Some cert
      | Some _ | None -> None)

let cert_count t = Hashtbl.length t.by_domain
