package repro.loombench

import repro.core.Model._

/** Output checks run on every pass. */
object Checks {

  /** Capacity slack b shared by LDG, Fennel and Loom (|S_i| ≤ b·n/k). */
  val CapacitySlack = 1.1

  /** Loom's capacity slack. Equal opportunism hands the winning partition
    * all unassigned vertices of the chosen matches at once, so Loom keeps the
    * bound only to cluster granularity: the program's own balance test
    * (LoomPartitionerSpec) allows two motifs' worth of vertices, and so does
    * this check.
    */
  def loomSlack(maxMotifEdges: Int): Int = 2 * (maxMotifEdges + 1)

  /** 64-bit FNV-1a over the (vertex, partition) pairs in vertex order. */
  def fingerprint(pmap: collection.Map[VId, Int]): String = {
    val vs = pmap.keys.toArray
    java.util.Arrays.sort(vs)
    var h = 0xcbf29ce484222325L
    def mix(x: Long): Unit = {
      var i = 0
      while (i < 8) { h = (h ^ ((x >>> (8 * i)) & 0xff)) * 0x100000001b3L; i += 1 }
    }
    vs.foreach { v => mix(v); mix(pmap(v).toLong) }
    f"$h%016x"
  }

  /** What is wrong with a finished partitioning of a stream whose distinct
    * vertices are `vertices` (sorted); empty if nothing is. A partition may
    * hold up to ⌈b·n/k⌉ + `slack` vertices.
    */
  def partitionProblems(system: String, pmap: collection.Map[VId, Int],
                        vertices: Array[VId], k: Int, slack: Int = 0): Vector[String] = {
    val out = Vector.newBuilder[String]
    val missing = vertices.count(v => !pmap.contains(v))
    if (missing > 0) out += s"$system: $missing stream vertices unassigned"
    if (pmap.size != vertices.length)
      out += s"$system: ${pmap.size} vertices assigned, stream has ${vertices.length}"
    val sizes = Array.fill(k)(0)
    pmap.valuesIterator.foreach { pid =>
      if (pid < 0 || pid >= k) out += s"$system: partition id $pid out of range"
      else sizes(pid) += 1
    }
    val cap = math.ceil(CapacitySlack * vertices.length / k).toInt + slack
    if (sizes.max > cap) out += s"$system: largest partition ${sizes.max} exceeds capacity $cap"
    out.result()
  }

  /** pmap fingerprints of the partitioners as first reproduced (before any
    * optimisation), per (workload, seed) and system, for seeds 1–20 under
    * Spark `local[4]`; read from `fingerprints.tsv`. A change that alters
    * any of them changes what the partitioners compute. The random order is
    * drawn per Spark partition, so other core counts give other streams and
    * skip this check.
    */
  val RecordedParallelism = 4

  lazy val Recorded: Map[(String, Long), Map[String, String]] = {
    val src = scala.io.Source.fromResource("fingerprints.tsv")
    try {
      src.getLines().filterNot(l => l.isEmpty || l.startsWith("#")).map(_.split('\t')).toVector
        .groupBy(f => (f(0), f(1).toLong))
        .map { case (key, rows) => key -> rows.map(f => f(2) -> f(3)).toMap }
    } finally src.close()
  }
}
