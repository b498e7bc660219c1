(** The call tree of Figure 1, reconstructed from the paper's text.

    Constraints taken verbatim from §3–§4: failing B fragments the tree
    into {A1,C1,C2,C3,D3}, {A2,D1,D2,C4} and {D4,D5,A5}; processor A holds
    the checkpoint for B1, C for B2, B3 and B5, D for B7; B2's children are
    D4 and A2; C4 spawned B5; B3's grandparent pointer reaches A1 and D4's
    reaches C1.  The unique tree shape satisfying all of these:

    {v
    A1(ε) ── B1 • C1 ── B2 ── D4 ── D5 ── A5
          │           └──── A2 ── D1 • D2 ── C4 ── B5
          ├─ C2 ── B3
          └─ C3 ── D3 ── B7
    v}

    Tasks are named as in the figure ("A1" means "a task on processor A");
    processors A..D map to ids 0..3. *)

module Stamp = Recflow_recovery.Stamp
module Ids = Recflow_recovery.Ids

type node = { label : string; stamp : Stamp.t; proc : Ids.proc_id; children : node list }

val root : node
(** A1. *)

val all : node list
(** Preorder. *)

val find : string -> node
(** @raise Not_found for an unknown label. *)

val parent : node -> node option

val grandparent : node -> node option

val proc_name : Ids.proc_id -> string
(** 0..3 → "A".."D". *)

val proc_of_name : string -> Ids.proc_id
(** @raise Not_found. *)

val fragments : failed:Ids.proc_id -> string list list
(** Connected pieces of the tree after removing tasks on [failed], each as
    a sorted list of labels (pieces ordered by their topmost task's stamp). *)

val packet_of : node -> Recflow_recovery.Packet.t
(** A task packet for the node, with parent/grandparent links derived from
    the tree (the root uses the super-root linkage). *)
