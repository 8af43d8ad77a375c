module Store = Cp.Store

(* The cold exact backend: a fresh Table-1 model of [inst]. *)
let model_search inst ~registry ~bound_to_beat limits =
  let model =
    Model.build inst ~horizon:(Sched.Instance.default_horizon inst)
  in
  model.Model.bound := bound_to_beat;
  if registry <> None then Store.set_instrumented model.Model.store true;
  let outcome = Search.run model limits in
  Option.iter (fun r -> Store.harvest r model.Model.store) registry;
  (outcome, 0.)

let solve ?options ?warm inst =
  Cp.Solver.solve ?options ?warm ~exact:(model_search inst) inst
