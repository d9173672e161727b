(** A topic taxonomy: a rooted forest over the instance's topic
    indices, backing the hierarchical keyword-similarity objective
    ({!Objective.Taxonomy}, after Kalmukov's taxonomy-weighted reviewer
    assignment). A reviewer whose expertise sits at "databases"
    partially covers a paper tagged "query optimization": expertise
    bleeds along tree edges with a per-hop decay factor. *)

type t

val create : int array -> (t, string) result
(** [create parent] builds the forest where [parent.(v)] is topic [v]'s
    parent and [-1] marks a root. Rejects empty arrays, out-of-range
    parents, self-loops and cycles. *)

val create_exn : int array -> t
(** As {!create} but raising [Invalid_argument]. *)

val balanced : dim:int -> arity:int -> t
(** A balanced [arity]-ary tree over [dim] topics rooted at topic 0
    (node [v] hangs under [(v - 1) / arity]) — the synthetic default
    for presets with no curated tree. *)

val dim : t -> int
(** Number of topics; must equal the bound instance's dimension. *)

val parent : t -> int -> int
(** Parent topic id, [-1] for roots. *)

val depth : t -> int -> int
(** Hops to the root; 0 for roots. *)

val distance : t -> int -> int -> int option
(** Tree distance in hops through the lowest common ancestor; [None]
    when the nodes lie in different trees of the forest. *)

val similarity : t -> decay:float -> int -> int -> float
(** [decay ^ distance], 1 on the diagonal, 0 across disconnected
    trees. *)

val smooth : t -> decay:float -> float array -> float array
(** Tree-smoothed expertise: [smoothed.(u) = max_v vec.(v) *
    decay^distance(u, v)] — computed in O(dim) with an up-then-down
    sweep over the depth order (exact for tree metrics, where every
    path decomposes at the LCA; the brute-force O(dim²) walk is the
    test oracle). [decay] must lie in [0, 1]; [decay = 0] is the
    identity on supports (0^0 = 1), [decay = 1] floods each tree with
    its maximum. *)

val of_lines : dim:int -> string list -> (t, string) result
(** Parse the TSV edge list: one [child \t parent] per line, parent
    [-1] or [-] for an explicit root, [#]-comments and blank lines
    skipped. Topics never mentioned default to roots. *)
