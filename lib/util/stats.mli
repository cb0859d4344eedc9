(** Small statistics helpers used by the benchmark harness. *)

val mean : float list -> float
(** Arithmetic mean; 0 on the empty list. *)

val geomean : float list -> float
(** Geometric mean of positive values; 0 on the empty list. *)

val stddev : float list -> float
(** Population standard deviation; 0 for fewer than two samples. *)

val median : float list -> float
(** Median; 0 on the empty list. *)

val percentile : float array -> float -> float
(** [percentile sorted p]: the nearest-rank [p]th percentile
    ([0 <= p <= 100]) of an ascending array — the element at rank
    [ceil (p * n / 100)], clamped to [1..n]; 0 on the empty array. *)

val percent_overhead : baseline:float -> measured:float -> float
(** [(measured - baseline) / baseline * 100]. *)

val linear_fit : (float * float) list -> float * float
(** Least-squares fit [y = a*x + b]; returns [(a, b)]. Requires two or
    more points with non-constant x. *)
