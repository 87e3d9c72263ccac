// Clean twin for the placement rule: a mark AFTER the terminating ';'
// binds forward only (the statement is closed), so it does NOT cover
// the preceding declaration and the unlocked write is not a guarded
// access.
#include <mutex>

class Tally
{
  public:
    void bump() { count_ += 1; }

  private:
    std::mutex mu_;
    unsigned long long count_ = 0;
    // dbsim-analyze: guarded_by(mu_)
};
