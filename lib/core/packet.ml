module Value = Recflow_lang.Value

type link = { task : Ids.task_id; proc : Ids.proc_id; slot : int }

type t = {
  stamp : Stamp.t;
  fname : string;
  args : Value.t array;
  parent : link;
  grandparent : link option;
  ancestors : link list;
}

let root ~fname ~args ~super_slot =
  {
    stamp = Stamp.root;
    fname;
    args;
    parent = { task = Ids.no_task; proc = Ids.super_root; slot = super_slot };
    grandparent = None;
    ancestors = [];
  }

let make ~stamp ~fname ~args ~parent ~grandparent ~ancestors =
  { stamp; fname; args; parent; grandparent; ancestors }

let reparent t ~parent ~grandparent = { t with parent; grandparent }

let equal_identity a b = Stamp.equal a.stamp b.stamp && String.equal a.fname b.fname
