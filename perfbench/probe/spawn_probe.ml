(* One run of the probe kernel in a fresh process: cli-cold times the whole
   spawn, as it times an mrefine process. *)

let () = exit (if Hostprobe.kernel () > 0 then 0 else 1)
