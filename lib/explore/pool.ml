(** Domain-based worker pool.  Determinism strategy: items live in an
    array; workers claim indices from one [Atomic.t] counter and write
    [results.(i)], so the output depends only on [f] and the input order,
    never on domain scheduling.  Per-item exceptions are confined to
    their index, retried, and reported in place. *)

let default_jobs () = max 1 (Domain.recommended_domain_count ())

(* Claim indices from one counter, run [g] (which never raises — it
   captures), join.  [jobs <= 1] runs inline on the calling
   domain with identical results. *)
let run_indexed ~jobs ~g arr =
  let n = Array.length arr in
  let results = Array.make n None in
  if jobs <= 1 || n = 1 then
    Array.iteri (fun i x -> results.(i) <- Some (g i x)) arr
  else begin
    let next = Atomic.make 0 in
    let worker () =
      let rec loop () =
        let i = Atomic.fetch_and_add next 1 in
        if i < n then begin
          results.(i) <- Some (g i arr.(i));
          loop ()
        end
      in
      loop ()
    in
    let spawned = List.init (min jobs n - 1) (fun _ -> Domain.spawn worker) in
    worker ();
    List.iter Domain.join spawned
  end;
  Array.to_list results
  |> List.map (function
       | Some r -> r
       | None -> assert false (* every index was claimed *))

(* --- supervision -------------------------------------------------------- *)

type failure = {
  f_index : int;
  f_attempts : int;
  f_exn : string;
  f_backtrace : string;
}

type supervisor = {
  sv_retries : int;
  sv_backoff_s : float;
  sv_max_backoff_s : float;
}

let default_supervisor =
  { sv_retries = 2; sv_backoff_s = 0.05; sv_max_backoff_s = 1.0 }

let backoff_delay sv attempt =
  Float.min sv.sv_max_backoff_s
    (sv.sv_backoff_s *. (2.0 ** float_of_int (attempt - 1)))

let supervise ?(supervisor = default_supervisor) ~jobs ~f items =
  if jobs < 1 then invalid_arg "Pool.supervise: jobs < 1";
  if supervisor.sv_retries < 0 then
    invalid_arg "Pool.supervise: retries < 0";
  let arr = Array.of_list items in
  if Array.length arr = 0 then []
  else
    run_indexed ~jobs arr ~g:(fun i x ->
        let rec attempt k =
          match f x with
          | v -> Ok v
          | exception e ->
            let bt =
              Printexc.raw_backtrace_to_string (Printexc.get_raw_backtrace ())
            in
            if k > supervisor.sv_retries then
              (* Quarantined: the item failed its first run and every
                 retry — report it and leave the rest of the sweep
                 untouched. *)
              Error
                {
                  f_index = i;
                  f_attempts = k;
                  f_exn = Printexc.to_string e;
                  f_backtrace = bt;
                }
            else begin
              Unix.sleepf (backoff_delay supervisor k);
              attempt (k + 1)
            end
        in
        attempt 1)
