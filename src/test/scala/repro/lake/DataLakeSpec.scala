package repro.lake

import repro.{Oracle, SparkSpec}
import org.apache.spark.sql.functions._

class DataLakeSpec extends SparkSpec {

  test("fromTables unpivots every cell with its table.column attribute id") {
    import spark.implicits._
    val t = Seq((1, "a"), (2, "b")).toDF("x", "y")
    val lake = DataLake.fromTables(Seq("T" -> t))
    val cells = lake.cells.as[(String, String)].collect().toSet
    assert(cells === Set(("T.x", "1"), ("T.x", "2"), ("T.y", "a"), ("T.y", "b")))
    assert(lake.numTables === 1)
    assert(lake.cells.select("attribute").distinct().count() === 2)
  }

  test("fromTables keeps null cells (filtered later by graph construction)") {
    import spark.implicits._
    val t = Seq(("a", Option("p")), ("b", None)).toDF("x", "y")
    val lake = DataLake.fromTables(Seq("T" -> t))
    assert(lake.cells.count() === 4)
    assert(lake.cells.filter(col("value").isNull).count() === 1)
  }

  test("fromTables cell counts match a DuckDB unpivot") {
    import spark.implicits._
    val t = Seq(("a", "p"), ("b", "q"), ("a", "q")).toDF("x", "y")
    val lake = DataLake.fromTables(Seq("T" -> t))
    val counts = lake.cells.groupBy("attribute")
      .agg(count(lit(1)).as("cnt"))
    Oracle.assertEquivalent(
      counts,
      """SELECT attribute, count(*) AS cnt FROM (
        |  SELECT 'T.x' AS attribute, x AS value FROM t
        |  UNION ALL SELECT 'T.y', y FROM t
        |) GROUP BY attribute""".stripMargin,
      "t" -> t)
  }

  test("multiple tables with same column names get distinct attribute ids") {
    import spark.implicits._
    val a = Seq("u").toDF("name")
    val b = Seq("v").toDF("name")
    val lake = DataLake.fromTables(Seq("A" -> a, "B" -> b))
    import spark.implicits._
    val attrs = lake.cells.select("attribute").distinct().as[String].collect().toSet
    assert(attrs === Set("A.name", "B.name"))
    assert(lake.numTables === 2)
  }

  test("fromTables rejects two (table, column) pairs with the same attribute id") {
    import spark.implicits._
    val ab = Seq("u").toDF("c")
    val a = Seq("v").toDF("b.c")
    val e = intercept[IllegalArgumentException](DataLake.fromTables(Seq("a.b" -> ab, "a" -> a)))
    assert(e.getMessage.contains("attribute id 'a.b.c'"))
    assert(e.getMessage.contains("(table 'a.b', column 'c')"))
    assert(e.getMessage.contains("(table 'a', column 'b.c')"))
  }

  test("ofColumns builds the expected cell bag") {
    val lake = DataLake.ofColumns(spark, "T.a" -> Seq("x", "y", "x"), "U.b" -> Seq("x"))
    assert(lake.cells.count() === 4)
    assert(lake.numTables === 2)
    assert(lake.cells.select("attribute").distinct().count() === 2)
  }

  test("ofColumns rejects an id without exactly one '.'") {
    for (id <- Seq("Ta", "a.b.c", "T.a."))
      intercept[IllegalArgumentException](DataLake.ofColumns(spark, "T.a" -> Seq("x"), id -> Seq("x")))
    assert(DataLake.ofColumns(spark, "T.a" -> Seq("x"), "T.b" -> Seq("x")).numTables === 1)
  }

  test("fromCells validates the schema") {
    import spark.implicits._
    val ok = Seq(("A.c", "v")).toDF("attribute", "value")
    assert(DataLake.fromCells(ok, 1).cells.count() === 1)
    val bad = Seq(("A.c", "v")).toDF("attr", "value")
    intercept[IllegalArgumentException](DataLake.fromCells(bad, 1))
  }
}
