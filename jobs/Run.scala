package repro.jobs

import scala.collection.immutable.ListMap
import org.apache.spark.sql.SparkSession
import repro.engine.Experiments._

/** Runs one evaluation experiment and prints its table, the one its bench
  * reports, with window 1000.
  * Usage: `Run <table1|table2|fig7|fig8|fig9> [sf]` (sf defaults to 1.0, the
  * lite scale).
  */
object Run {

  private val Window = 1000

  private val experiments: ListMap[String, (SparkSession, Double) => Vector[String]] = ListMap(
    "table1" -> ((spark, sf) => formatTable1(table1(spark, sf))),
    "table2" -> ((spark, sf) => formatTable2(table2(spark, sf, Window))),
    "fig7"   -> ((spark, sf) => formatFig7(fig7(spark, sf, Window))),
    "fig8"   -> ((spark, sf) => formatFig8(fig8(spark, sf, Window))),
    "fig9"   -> ((spark, sf) => formatFig9(fig9(spark, sf))),
  )

  def main(args: Array[String]): Unit = {
    val valid = experiments.keys.mkString("|")
    val name  = args.headOption.getOrElse(sys.error(s"usage: Run <$valid> [sf]"))
    val experiment = experiments.getOrElse(
      name, sys.error(s"unknown experiment '$name'; valid names: $valid"))
    val sf    = args.lift(1).map(_.toDouble).getOrElse(1.0)
    val spark = JobUtil.session(s"loom-$name")
    spark.sparkContext.setLogLevel("WARN")
    try experiment(spark, sf).foreach(println)
    finally spark.stop()
  }
}
