package repro.engine

import org.apache.spark.sql.DataFrame
import repro.core.Model._
import repro.core.NaiveIso

/** Sub-graph pattern matching as one plain SQL text per pattern.
  *
  * The data graph is a table `(u: long, ul: string, v: long, vl: string)`
  * of canonicalised undirected edges. [[sql]] builds a symmetric (directed)
  * view of it and joins that view once per pattern edge, with label
  * predicates and injectivity filters. Each distinct sub-graph R_i of the
  * paper's definition (§1.3) is found once per automorphism of the pattern;
  * symmetry breaking (Grochow & Kellis, RECOMB 2007) keeps exactly one of
  * those embeddings, so the query returns one row per match with no
  * deduplication. The text is valid Spark SQL and DuckDB SQL, which lets the
  * DuckDB oracle check the very query whose Spark result is scored.
  */
object PatternMatcher {

  /** The edge table that [[sql]] reads and [[matches]] registers. */
  val EdgesView = "pattern_edges"

  /** Plain SQL listing the distinct matches of q over [[EdgesView]]: one row
    * per match, with `x{i}`, `y{i}` (smaller id first) holding the data
    * edge that pattern edge i maps to.
    *
    * Symmetry breaking: an embedding p (pattern vertex -> data vertex) is
    * kept only if p <= p∘σ lexicographically for every non-identity
    * automorphism σ of q, which singles out the least embedding of each
    * match. As p is injective, the tuples p and p∘σ first differ at the
    * first vertex i that σ moves, so the condition is `p(i) < p(σ(i))`.
    */
  def sql(q: QueryGraph): String = {
    var bound = Map.empty[Int, String] // pattern vertex -> column
    val joins = Vector.newBuilder[String]
    val where = Vector.newBuilder[String]
    q.edges.zipWithIndex.foreach { case ((pa, pb), i) =>
      val on = Seq(pa -> "a", pb -> "b").map { case (pv, end) =>
        bound.get(pv) match {
          case Some(c) => s"e$i.$end = $c"
          case None =>
            bound += pv -> s"e$i.$end"
            s"e$i.${end}l = '${q.labels(pv)}'"
        }
      }
      if (i == 0) { joins += "d e0"; where ++= on }
      else joins += s"JOIN d e$i ON ${on.mkString(" AND ")}"
    }
    val n = q.numVertices
    for (x <- 0 until n; y <- x + 1 until n) where += s"${bound(x)} <> ${bound(y)}"
    NaiveIso.automorphisms(q)
      .flatMap(sigma => (0 until n).find(i => sigma(i) != i).map(i => (i, sigma(i))))
      .distinct
      .foreach { case (i, j) => where += s"${bound(i)} < ${bound(j)}" }
    val cols = q.edges.zipWithIndex.map { case ((pa, pb), i) =>
      s"least(${bound(pa)}, ${bound(pb)}) AS x$i, greatest(${bound(pa)}, ${bound(pb)}) AS y$i"
    }
    s"""WITH d AS (
       |  SELECT u AS a, ul AS al, v AS b, vl AS bl FROM $EdgesView
       |  UNION ALL
       |  SELECT v AS a, vl AS al, u AS b, ul AS bl FROM $EdgesView
       |)
       |SELECT ${cols.mkString(",\n       ")}
       |FROM ${joins.result().mkString("\n  ")}
       |WHERE ${where.result().mkString("\n  AND ")}""".stripMargin
  }

  /** Distinct matches of q: [[sql]] run by Spark over `edges`, registered
    * as [[EdgesView]]. The row count is the number of matches.
    */
  def matches(edges: DataFrame, q: QueryGraph): DataFrame = {
    edges.createOrReplaceTempView(EdgesView)
    edges.sparkSession.sql(sql(q))
  }
}
