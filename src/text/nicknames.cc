#include "text/nicknames.h"

#include <cctype>

#include "util/string_util.h"

namespace mergepurge {

namespace {

// Longest name SameCanonicalName upper-cases on the stack.
constexpr size_t kStackNameBytes = 64;

// ToUpperAscii into a caller buffer of at least name.size() bytes.
std::string_view UpperInto(std::string_view name, char* buf) {
  for (size_t i = 0; i < name.size(); ++i) {
    buf[i] = static_cast<char>(
        std::toupper(static_cast<unsigned char>(name[i])));
  }
  return std::string_view(buf, name.size());
}

}  // namespace

void NicknameTable::AddVariant(std::string_view canonical,
                               std::string_view variant) {
  variant_to_canonical_[ToUpperAscii(variant)] = ToUpperAscii(canonical);
}

void NicknameTable::AddGroup(std::string_view canonical,
                             const std::vector<std::string_view>& variants) {
  std::string canon = ToUpperAscii(canonical);
  variant_to_canonical_[canon] = canon;
  for (std::string_view v : variants) AddVariant(canonical, v);
}

std::string_view NicknameTable::CanonicalOfUpper(
    std::string_view upper) const {
  auto it = variant_to_canonical_.find(upper);
  return it != variant_to_canonical_.end() ? std::string_view(it->second)
                                           : upper;
}

std::string NicknameTable::Canonicalize(std::string_view name) const {
  return std::string(CanonicalOfUpper(ToUpperAscii(name)));
}

bool NicknameTable::SameCanonicalName(std::string_view a,
                                      std::string_view b) const {
  if (a.size() > kStackNameBytes || b.size() > kStackNameBytes) {
    return Canonicalize(a) == Canonicalize(b);
  }
  char a_buf[kStackNameBytes] = {};
  char b_buf[kStackNameBytes] = {};
  return CanonicalOfUpper(UpperInto(a, a_buf)) ==
         CanonicalOfUpper(UpperInto(b, b_buf));
}

const NicknameTable& NicknameTable::Default() {
  static const NicknameTable* table = [] {
    auto* t = new NicknameTable();
    t->AddGroup("ROBERT", {"BOB", "BOBBY", "ROB", "ROBBIE", "BERT",
                           "ROBERTO"});
    t->AddGroup("WILLIAM", {"BILL", "BILLY", "WILL", "WILLIE", "LIAM",
                            "GUILLERMO", "WILHELM"});
    t->AddGroup("JOSEPH", {"JOE", "JOEY", "JOS", "GIUSEPPE", "JOSE",
                           "JOSEF"});
    t->AddGroup("JOHN", {"JACK", "JOHNNY", "JON", "JUAN", "GIOVANNI",
                         "JOHANN", "IAN", "SEAN"});
    t->AddGroup("JAMES", {"JIM", "JIMMY", "JAMIE", "DIEGO", "SEAMUS"});
    t->AddGroup("MICHAEL", {"MIKE", "MICKEY", "MICK", "MIGUEL", "MICHEL",
                            "MIKHAIL"});
    t->AddGroup("RICHARD", {"DICK", "RICK", "RICKY", "RICH", "RICARDO"});
    t->AddGroup("CHARLES", {"CHUCK", "CHARLIE", "CHAS", "CARLOS", "CARL",
                            "KARL"});
    t->AddGroup("THOMAS", {"TOM", "TOMMY", "TOMAS"});
    t->AddGroup("DAVID", {"DAVE", "DAVEY", "DAVIDE"});
    t->AddGroup("DANIEL", {"DAN", "DANNY", "DANILO"});
    t->AddGroup("EDWARD", {"ED", "EDDIE", "TED", "NED", "EDUARDO"});
    t->AddGroup("ANTHONY", {"TONY", "ANTONIO", "ANTON"});
    t->AddGroup("STEVEN", {"STEVE", "STEPHEN", "ESTEBAN", "STEFAN"});
    t->AddGroup("LAWRENCE", {"LARRY", "LAURENCE", "LORENZO"});
    t->AddGroup("PETER", {"PETE", "PEDRO", "PIETRO", "PIERRE"});
    t->AddGroup("PAUL", {"PABLO", "PAOLO", "PAVEL"});
    t->AddGroup("GEORGE", {"JORGE", "GIORGIO", "GEORG"});
    t->AddGroup("FRANCIS", {"FRANK", "FRANKIE", "FRANCISCO", "FRANCESCO",
                            "FRANCOIS"});
    t->AddGroup("HENRY", {"HANK", "HARRY", "ENRIQUE", "ENRICO", "HEINRICH"});
    t->AddGroup("ALEXANDER", {"ALEX", "AL", "SANDY", "ALEJANDRO",
                              "ALESSANDRO"});
    t->AddGroup("NICHOLAS", {"NICK", "NICKY", "NICOLAS", "NICOLA", "NIKOLAI"});
    t->AddGroup("ELIZABETH", {"LIZ", "BETH", "BETTY", "BETSY", "LIZZIE",
                              "ELISA", "ISABEL", "ELISABETTA"});
    t->AddGroup("MARGARET", {"PEGGY", "MEG", "MAGGIE", "MARGE", "MARGARITA",
                             "MARGUERITE"});
    t->AddGroup("KATHERINE", {"KATE", "KATIE", "KATHY", "CATHERINE", "KAREN",
                              "CATALINA", "CATERINA"});
    t->AddGroup("MARY", {"MARIA", "MARIE", "MOLLY", "POLLY", "MAMIE"});
    t->AddGroup("SUSAN", {"SUE", "SUSIE", "SUZANNE", "SUSANNA"});
    t->AddGroup("PATRICIA", {"PAT", "PATSY", "TRICIA", "PATRIZIA"});
    t->AddGroup("BARBARA", {"BARB", "BABS", "BARBRA"});
    t->AddGroup("JENNIFER", {"JEN", "JENNY", "JENNA"});
    t->AddGroup("DOROTHY", {"DOT", "DOTTIE", "DOROTEA"});
    t->AddGroup("HELEN", {"NELL", "NELLIE", "ELENA", "HELENE"});
    t->AddGroup("ANN", {"ANNE", "ANNA", "ANNIE", "NAN", "ANITA"});
    t->AddGroup("JANE", {"JANET", "JANICE", "JOAN", "JUANA", "GIOVANNA"});
    t->AddGroup("CHRISTINE", {"CHRIS", "CHRISSY", "TINA", "CRISTINA",
                              "KRISTEN"});
    return t;
  }();
  return *table;
}

}  // namespace mergepurge
