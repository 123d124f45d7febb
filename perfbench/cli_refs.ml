(* Inputs and in-process references for the cli-cold workload.

   [write ~seed ~dir] copies the shipped medical specification into [dir]
   and writes [dir/ops.json]: one cycle of [mrefine] invocations — refine,
   lint, cosim, simulate and a one-seed fault campaign, each under the four
   models where the subcommand takes one — in a seed-determined order.
   Each op names a file holding its expected standard output, computed
   here in-process through the library calls the subcommand makes, and the
   in-process time of that work (median of three), which run.py subtracts
   from the process wall time to get the command layer's own cost. *)

module P = Serve.Protocol

let spec_name = "medical.sc"

let read_file path =
  let ic = open_in_bin path in
  Fun.protect ~finally:(fun () -> close_in ic) (fun () -> In_channel.input_all ic)

let write_file path s =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc s)

let job session fields =
  match Serve.Jobs.run ~session ~poll:(fun () -> false) (P.Obj fields) with
  | Ok o -> o.Serve.Jobs.o_output
  | Error msg -> failwith ("cli reference: " ^ msg)

let load text =
  let p = Spec.Parser.program_of_string_exn text in
  Spec.Program.validate_exn p

(* [mrefine simulate SPEC] *)
let simulate text =
  let r = Sim.Engine.run (load text) in
  let b = Buffer.create 1024 in
  let ppf = Format.formatter_of_buffer b in
  Format.fprintf ppf "outcome: %s (deltas=%d, steps=%d)\n"
    (Sim.Engine.outcome_to_string r.Sim.Engine.r_outcome)
    r.Sim.Engine.r_deltas r.Sim.Engine.r_steps;
  List.iter
    (fun e ->
      Format.fprintf ppf "  emit %s = %a@." e.Sim.Trace.ev_tag Spec.Expr.pp_value
        e.Sim.Trace.ev_value)
    r.Sim.Engine.r_trace;
  List.iter
    (fun (name, v) -> Format.fprintf ppf "  final %s = %a@." name Spec.Expr.pp_value v)
    r.Sim.Engine.r_final;
  Format.pp_print_flush ppf ();
  Buffer.contents b

(* [mrefine cosim SPEC --model M] *)
let cosim text model =
  let p = load text in
  let g = Agraph.Access_graph.of_program p in
  let part = Partitioning.Greedy.run g ~n_parts:2 in
  let r = Core.Refiner.refine p g part model in
  let v = Sim.Cosim.check ~original:p ~refined:r.Core.Refiner.rf_program () in
  if not v.Sim.Cosim.v_equivalent then failwith "cli reference: cosim diverged";
  Printf.sprintf
    "equivalent: refined %s design matches the original specification\n\
     (original: %d deltas; refined: %d deltas)\n"
    (Core.Model.name model) v.Sim.Cosim.v_original.Sim.Engine.r_deltas
    v.Sim.Cosim.v_refined.Sim.Engine.r_deltas

let model_arg m = string_of_int (1 + Option.get (List.find_index (( = ) m) Core.Model.all))

let ops text =
  let session = Serve.Session.create () in
  let spec = ("spec", P.String text) in
  let per_model m =
    let n = model_arg m in
    [
      ( "refine",
        [ "refine"; "-q"; spec_name; "--model"; n ],
        fun () -> job session [ ("kind", P.String "refine"); spec; ("model", P.String n) ] );
      ("cosim", [ "cosim"; spec_name; "--model"; n ], fun () -> cosim text m);
      ( "faults",
        [ "faults"; spec_name; "--seeds"; "1"; "--model"; n ],
        fun () ->
          job session
            [ ("kind", P.String "faults"); spec; ("model", P.String n); ("seeds", P.Int 1) ]
      );
      ( "lint",
        [ "lint"; spec_name ],
        fun () ->
          job session [ ("kind", P.String "lint"); spec; ("file", P.String spec_name) ] );
      ("simulate", [ "simulate"; spec_name ], fun () -> simulate text);
    ]
  in
  List.concat_map per_model Core.Model.all

let shuffle seed a =
  let rng = Random.State.make [| seed; 0xc11 |] in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

let write ~seed ~dir =
  let text = read_file (Filename.concat "examples/specs" spec_name) in
  write_file (Filename.concat dir spec_name) text;
  let ops = shuffle seed (Array.of_list (ops text)) in
  let entries =
    Array.mapi
      (fun i (cls, args, reference) ->
        let times = ref [] in
        let out = ref "" in
        for _ = 1 to 3 do
          let t0 = Unix.gettimeofday () in
          out := reference ();
          times := ((Unix.gettimeofday () -. t0) *. 1e3) :: !times
        done;
        let expected = Printf.sprintf "expected-%02d.txt" i in
        write_file (Filename.concat dir expected) !out;
        P.Obj
          [
            ("class", P.String cls);
            ("args", P.List (List.map (fun a -> P.String a) args));
            ("expected", P.String expected);
            ("inproc_ms", P.Float (Harness.median !times));
          ])
      ops
  in
  write_file (Filename.concat dir "ops.json")
    (P.to_string (P.List (Array.to_list entries)))
