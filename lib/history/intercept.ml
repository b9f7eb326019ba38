type edge = { src : string; dst : string }

let pp_edge ppf e = Format.fprintf ppf "%s->%s" e.src e.dst

type decision = Pass | Drop | Delay of int

type 'v policy = edge -> 'v Event.t -> decision

type 'v t = {
  mutable policy : 'v policy;
  mutable observer : edge -> 'v Event.t -> decision -> unit;
}

let pass_through _ _ = Pass

let create () = { policy = pass_through; observer = (fun _ _ _ -> ()) }

let decide t edge event =
  let decision = t.policy edge event in
  t.observer edge event decision;
  decision

let set_policy t policy = t.policy <- policy

let clear t = t.policy <- pass_through

let set_observer t observer = t.observer <- observer
