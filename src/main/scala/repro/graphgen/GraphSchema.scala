package repro.graphgen

/** Schema for a synthetic vertex-labelled graph.
  *
  * Vertices are split into contiguous id ranges, one per label, sized by
  * `share` (fractions of n). Edges are drawn from typed distributions: an
  * [[EdgeType]] connects a source-label range to a destination-label range,
  * receives a fraction `weight` of the edge budget, and draws endpoints with
  * a power-law skew (`skew` = 1.0 is uniform; larger values concentrate
  * endpoints on low ids within the range, creating hubs as in real
  * citation/metadata graphs). `axis` selects the community coupling of
  * [[SchemaGraphGen]].
  */
final case class EdgeType(srcLabel: String, dstLabel: String, weight: Double,
                          srcSkew: Double = 1.0, dstSkew: Double = 1.0,
                          axis: Int = 0) {
  require(weight > 0, "edge type weight must be positive")
  require(srcSkew >= 1.0 && dstSkew >= 1.0, "skew exponents must be >= 1")
  require(axis == 0 || axis == 1, "axis must be 0 or 1")
}

final case class GraphSchema(name: String,
                             labelShares: Vector[(String, Double)],
                             edgeTypes: Vector[EdgeType]) {
  require(labelShares.nonEmpty && edgeTypes.nonEmpty, "schema must be non-trivial")
  private val labelSet = labelShares.map(_._1).toSet
  require(labelShares.map(_._1).distinct.size == labelShares.size, "duplicate labels")
  edgeTypes.foreach { t =>
    require(labelSet(t.srcLabel) && labelSet(t.dstLabel),
            s"edge type ${t.srcLabel}-${t.dstLabel} references unknown label")
  }

  def labels: Vector[String] = labelShares.map(_._1)
  def numLabels: Int         = labels.size

  /** Contiguous vertex-id range per label for a graph of n vertices:
    * label -> (startId, count). Ranges partition [0, n).
    */
  def ranges(n: Long): Map[String, (Long, Long)] = {
    val totalShare = labelShares.map(_._2).sum
    var start      = 0L
    val out        = Vector.newBuilder[(String, (Long, Long))]
    labelShares.zipWithIndex.foreach { case ((l, s), i) =>
      val cnt =
        if (i == labelShares.size - 1) math.max(1L, n - start)
        else math.max(1L, math.round(n * s / totalShare))
      out += (l -> (start, cnt))
      start += cnt
    }
    out.result().toMap
  }
}
