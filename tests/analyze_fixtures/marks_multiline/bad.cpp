// Seeded violation guarding the mark-pairing fix: a standalone mark
// inside a still-open multi-line declaration binds backward to the
// declaration (as well as forward), so entries_ keeps its guarded_by()
// contract and the unlocked write is reported.
#include <mutex>

class Ledger
{
  public:
    void bumpUnlocked() { entries_ += 1; }

  private:
    std::mutex mu_;
    unsigned long long entries_ =
        // dbsim-analyze: guarded_by(mu_)
        0;
};
