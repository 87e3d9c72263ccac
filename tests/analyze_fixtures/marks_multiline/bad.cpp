// Seeded violation guarding the mark-pairing rule: a cold() mark after
// the definition's closing brace binds forward only (the statement is
// closed), so it does NOT cover the preceding helper, which stays on
// the tick path and is reported for its allocation.
#include <vector>

class Core
{
  public:
    void tick();
};

int refill(int n);

void
Core::tick()
{
    refill(4);
}

int
refill(int n)
{
    std::vector<int> scratch(n);
    return static_cast<int>(scratch.size());
}
// dbsim-analyze: cold(misplaced: after the definition it meant to mark)
