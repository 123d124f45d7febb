(** Execution of one job against the shared {!Session}.

    A job is a JSON object with a ["kind"] — [refine], [lint],
    [explore], [faults] or [litmus] — plus the knobs of the matching
    [mrefine] subcommand.  Each job decodes into that subcommand's
    {!Command} request and runs through the same [run] and [render], so
    its report is {e byte-identical} to the cold CLI invocation's
    output.  Every kind but [litmus] carries the specification as
    source text in the ["spec"] field (the daemon need not share a
    filesystem view with its clients).

    Job field reference (absent fields take the CLI's defaults; fields a
    kind does not read are ignored):
    {v
    refine : spec, model, parts, algo, seed, assign, protocol, harden
             -> Command.design; the report is [mrefine refine -q]
    lint   : spec, file, codes, severity, phase, overrides, json, flow,
             fix -> Command.Lint.request; [file] stands in for the
             spec path in the report.  [fix=true] is [mrefine lint
             --fix --json]: every code must be fixable and severity,
             phase, overrides, json and flow are rejected
    explore: spec, models, seeds, biases, parts, steps, jobs, top,
             deadline, retries, json -> Command.Explore.request
    faults : spec, model, parts, algo, seed, assign, protocol, harden,
             classes, seeds, base_seed, deadline, ordering, json
             -> Command.Faults.request
    litmus : shapes, orderings, seeds, faults, json
             -> Command.Litmus.request
    v}
    Served refine results are memoized in the session cache under their
    parameters; a faults job takes its refined design from the session's
    refinement memo ({!Session.refined}) under the same key. *)

(** A finished job: the report text plus structured facts about it for
    the reply envelope (e.g. lint error counts, sweep coverage). *)
type outcome = {
  o_output : string;
  o_meta : (string * Protocol.json) list;
}

val run :
  session:Session.t ->
  poll:(unit -> bool) ->
  Protocol.json ->
  (outcome, string) result
(** Execute one job.  [poll] is the scheduler's cooperative cancel /
    deadline signal: it is checked between stages of every kind and
    threaded into the simulation kernels of [explore]
    ({!Explore.Evaluate.run}'s [poll]) and [faults]
    ({!Faults.Campaign.config.cf_poll}) jobs, so a cancelled job stops
    mid-simulation.  A cancelled job returns [Error "cancelled"].
    Never raises on malformed job JSON — that is an [Error]. *)

val cancelled_message : string
(** The [Error] payload of a job stopped by its poll. *)
