package repro.jobs

import org.apache.spark.sql.SparkSession

/** The Spark session of the mains, the tests and the benchmark. Shuffle
  * partitions match the session's default parallelism (the core count
  * under `local[*]`).
  */
object JobUtil {
  def session(app: String): SparkSession = {
    val s = SparkSession.builder()
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName(app)
      .config("spark.sql.autoBroadcastJoinThreshold", -1)
      .getOrCreate()
    s.conf.set("spark.sql.shuffle.partitions", s.sparkContext.defaultParallelism.toString)
    s
  }
}
