// Clean twin: a cold() mark inside a still-open multi-line parameter
// list binds backward to the function-name line as well as forward, so
// the helper is cold and its allocation is off the tick path.
#include <vector>

class Node
{
  public:
    bool dataAccess(unsigned long long addr);
};

int rebuild(int n,
            int m);

bool
Node::dataAccess(unsigned long long addr)
{
    return rebuild(2, 3) != 0 && addr != 0;
}

int
rebuild(int n,
        // dbsim-analyze: cold(once per report, off the measured path)
        int m)
{
    std::vector<int> scratch(n + m);
    return static_cast<int>(scratch.size());
}
