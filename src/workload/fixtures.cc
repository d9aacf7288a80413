#include "workload/fixtures.h"

namespace eid {
namespace fixtures {
namespace {

/// Builds an all-string relation with one declared candidate key.
Relation Build(const std::string& name,
               const std::vector<std::string>& attributes,
               const std::vector<std::string>& key,
               const std::vector<std::vector<std::string>>& rows) {
  Relation rel(name, Schema::OfStrings(attributes));
  if (!key.empty()) {
    Status st = rel.DeclareKey(key);
    EID_CHECK(st.ok());
  }
  for (const std::vector<std::string>& row : rows) {
    Status st = rel.InsertText(row);
    EID_CHECK(st.ok());
  }
  return rel;
}

IlfdSet ParseSet(const std::string& text) {
  Result<std::vector<Ilfd>> ilfds = ParseIlfdList(text);
  EID_CHECK(ilfds.ok());
  return IlfdSet(std::move(ilfds).value());
}

}  // namespace

Relation Table1R() {
  return Build("R", {"name", "street", "cuisine"}, {"name", "street"},
               {{"VillageWok", "Wash.Ave.", "Chinese"},
                {"Ching", "Co.B Rd.", "Chinese"},
                {"OldCountry", "Co.B2 Rd.", "American"}});
}

Relation Table1S() {
  return Build("S", {"name", "city", "manager"}, {"name", "city"},
               {{"VillageWok", "Mpls", "Hwang"},
                {"OldCountry", "Roseville", "Libby"},
                {"ExpressCafe", "Burnsville", "Tom"}});
}

Row Table1AmbiguousInsert() {
  return Row{Value::Str("VillageWok"), Value::Str("Penn.Ave."),
             Value::Str("Chinese")};
}

IlfdSet Example1Ilfds() {
  return ParseSet(
      "street=Wash.Ave. -> city=Mpls\n"
      "manager=Hwang -> street=Wash.Ave.\n");
}

ExtendedKey Example1ExtendedKey() {
  return ExtendedKey({"name", "street", "city"});
}

Relation Figure2R() {
  return Build("R", {"name", "cuisine"}, {"name"},
               {{"VillageWok", "Chinese"}});
}

Relation Figure2S() {
  return Build("S", {"name", "cuisine"}, {"name"},
               {{"VillageWok", "Chinese"}});
}

Relation Figure2RWithDomain() {
  return Build("R", {"name", "cuisine", "domain"}, {"name"},
               {{"VillageWok", "Chinese", "DB1"}});
}

Relation Figure2SWithDomain() {
  return Build("S", {"name", "cuisine", "domain"}, {"name"},
               {{"VillageWok", "Chinese", "DB2"}});
}

Relation Figure2Universe() {
  return Build("Restaurant", {"name", "street", "cuisine"},
               {"name", "street"},
               {{"VillageWok", "Wash.Ave.", "Chinese"},
                {"VillageWok", "Co.B2.Rd.", "Chinese"}});
}

Relation Example2R() {
  return Build("R", {"name", "cuisine", "street"}, {"name", "cuisine"},
               {{"TwinCities", "Chinese", "Wash.Ave."},
                {"TwinCities", "Indian", "Univ.Ave."}});
}

Relation Example2S() {
  return Build("S", {"name", "speciality", "city"}, {"name"},
               {{"TwinCities", "Mughalai", "St.Paul"}});
}

IlfdSet Example2Ilfds() {
  return ParseSet("speciality=Mughalai -> cuisine=Indian\n");
}

ExtendedKey Example2ExtendedKey() { return ExtendedKey({"name", "cuisine"}); }

Relation Example3R() {
  return Build("R", {"name", "cuisine", "street"}, {"name", "cuisine"},
               {{"TwinCities", "Chinese", "Co.B2"},
                {"TwinCities", "Indian", "Co.B3"},
                {"It'sGreek", "Greek", "FrontAve."},
                {"Anjuman", "Indian", "LeSalleAve."},
                {"VillageWok", "Chinese", "Wash.Ave."}});
}

Relation Example3S() {
  return Build("S", {"name", "speciality", "county"}, {"name", "speciality"},
               {{"TwinCities", "Hunan", "Roseville"},
                {"TwinCities", "Sichuan", "Hennepin"},
                {"It'sGreek", "Gyros", "Ramsey"},
                {"Anjuman", "Mughalai", "Mpls."}});
}

IlfdSet Example3Ilfds() {
  return ParseSet(
      "speciality=Hunan -> cuisine=Chinese\n"          // I1
      "speciality=Sichuan -> cuisine=Chinese\n"        // I2
      "speciality=Gyros -> cuisine=Greek\n"            // I3
      "speciality=Mughalai -> cuisine=Indian\n"        // I4
      "name=TwinCities & street=Co.B2 -> speciality=Hunan\n"        // I5
      "name=Anjuman & street=LeSalleAve. -> speciality=Mughalai\n"  // I6
      "street=FrontAve. -> county=Ramsey\n"                         // I7
      "name=It'sGreek & county=Ramsey -> speciality=Gyros\n");      // I8
}

Ilfd Example3DerivedI9() {
  Result<Ilfd> ilfd =
      ParseIlfd("name=It'sGreek & street=FrontAve. -> speciality=Gyros");
  EID_CHECK(ilfd.ok());
  return std::move(ilfd).value();
}

ExtendedKey Example3ExtendedKey() {
  return ExtendedKey({"name", "cuisine", "speciality"});
}

Figure1World Figure1() {
  Figure1World world;
  world.universe =
      Build("E", {"name", "street", "cuisine"}, {"name", "street"},
            {{"Curryosity", "First Ave.", "Indian"},      // e1
             {"PastaFazool", "Second Ave.", "Italian"},   // e2
             {"DimSummit", "Third Ave.", "Chinese"},      // e3
             {"TacoTempo", "Fourth Ave.", "Mexican"},     // e4 (unmodeled)
             {"PhoNominal", "Fifth Ave.", "Vietnamese"}});// e5
  world.r = Build("R", {"name", "street", "cuisine"}, {"name", "street"},
                  {{"Curryosity", "First Ave.", "Indian"},     // a1 = e1
                   {"PastaFazool", "Second Ave.", "Italian"},  // a2 = e2
                   {"DimSummit", "Third Ave.", "Chinese"}});   // a3 = e3
  world.s = Build("S", {"name", "street", "cuisine"}, {"name", "street"},
                  {{"PhoNominal", "Fifth Ave.", "Vietnamese"},  // b2 = e5
                   {"PastaFazool", "Second Ave.", "Italian"},   // b3 = e2
                   {"DimSummit", "Third Ave.", "Chinese"}});    // b4 = e3
  world.truth = {{1, 1}, {2, 2}};  // a2≡b3, a3≡b4
  return world;
}

}  // namespace fixtures
}  // namespace eid
