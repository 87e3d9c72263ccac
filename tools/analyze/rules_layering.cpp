/**
 * @file
 * R3: layering rules over the include graph.
 *
 * The source tree is layered; a directory may include same-layer or
 * lower-layer headers only, and the file-level include graph must be a
 * DAG.  The layer order below is the empirically true dependency order
 * of the tree (common at the bottom, the verification layer on top) --
 * it deliberately ranks sim above cpu/memory/coherence (the system
 * model composes the component models) and core above sim (the sweep
 * driver composes whole simulations).
 */

#include <algorithm>
#include <map>

#include "rules.hpp"

namespace dbsim::analyze {

namespace {

const std::map<std::string, int> &
layerRank()
{
    static const std::map<std::string, int> kRank = {
        {"common", 0},       {"trace", 1}, {"interconnect", 2},
        {"memory", 3},       {"coherence", 4}, {"cpu", 5},
        {"sim", 6},          {"workload", 7},  {"core", 8},
        {"verify", 9},
    };
    return kRank;
}

void
checkLayerOrder(const Corpus &c, std::vector<RawFinding> &out)
{
    const auto &rank = layerRank();
    for (const Corpus::Edge &e : c.edges) {
        const SourceFile &from = c.files[e.from];
        const SourceFile &to = c.files[e.to];
        const auto rf = rank.find(from.dir());
        const auto rt = rank.find(to.dir());
        if (rf == rank.end() || rt == rank.end() ||
            rf->second >= rt->second)
            continue;
        out.push_back(
            {kRuleLayerOrder, from.rel, e.line,
             "include of '" + to.rel + "' reaches up the layer order ('" +
                 from.dir() + "' is layer " + std::to_string(rf->second) +
                 ", '" + to.dir() + "' is layer " +
                 std::to_string(rt->second) +
                 "): move the shared declaration down or invert the "
                 "dependency",
             0});
    }
}

void
checkCycles(const Corpus &c, std::vector<RawFinding> &out)
{
    // Sorted adjacency so the DFS (and hence the reported cycles) is
    // deterministic.
    std::vector<std::vector<std::pair<int, int>>> adj(c.files.size());
    for (const Corpus::Edge &e : c.edges)
        adj[e.from].push_back({e.to, e.line});
    for (auto &a : adj)
        std::sort(a.begin(), a.end());

    enum class Color : unsigned char { White, Grey, Black };
    std::vector<Color> color(c.files.size(), Color::White);
    std::vector<int> stack;

    // Iterative DFS; on a grey hit, report the cycle path.
    struct Frame
    {
        int node;
        std::size_t next = 0;
    };
    for (std::size_t root = 0; root < c.files.size(); ++root) {
        if (color[root] != Color::White)
            continue;
        std::vector<Frame> frames{{static_cast<int>(root)}};
        color[root] = Color::Grey;
        stack.push_back(static_cast<int>(root));
        while (!frames.empty()) {
            Frame &fr = frames.back();
            if (fr.next >= adj[fr.node].size()) {
                color[fr.node] = Color::Black;
                stack.pop_back();
                frames.pop_back();
                continue;
            }
            const auto [to, line] = adj[fr.node][fr.next++];
            if (color[to] == Color::Grey) {
                std::string path;
                const auto start =
                    std::find(stack.begin(), stack.end(), to);
                for (auto it = start; it != stack.end(); ++it)
                    path += c.files[*it].rel + " -> ";
                path += c.files[to].rel;
                out.push_back({kRuleLayerCycle, c.files[fr.node].rel, line,
                               "include cycle: " + path, 0});
                continue;
            }
            if (color[to] == Color::White) {
                color[to] = Color::Grey;
                stack.push_back(to);
                frames.push_back({to});
            }
        }
    }
}

} // namespace

void
runLayeringRules(const PassContext &ctx, std::vector<RawFinding> &out)
{
    const Corpus &c = ctx.corpus;
    checkLayerOrder(c, out);
    checkCycles(c, out);
}

} // namespace dbsim::analyze
