#include "include_graph.hpp"

#include <algorithm>
#include <functional>
#include <map>
#include <sstream>

namespace rsin {
namespace lint {

namespace {

/** The declared module-layer DAG: module -> rank. */
const std::map<std::string, int> &
layerTable()
{
    static const std::map<std::string, int> table{
        {"common", 0},
        {"la", 1},       {"logic", 1}, {"markov", 1}, {"topology", 1},
        {"des", 2},
        {"queueing", 3}, {"workload", 3}, {"sched", 3},
        {"rsin", 4},
        {"exec", 5},     {"obs", 5},
        {"bench", 6},    {"examples", 6}, {"tools", 6},
        {"tests", 7},
    };
    return table;
}

std::string
firstComponent(const std::string &path)
{
    const std::size_t slash = path.find('/');
    return slash == std::string::npos ? path : path.substr(0, slash);
}

std::string
dirName(const std::string &path)
{
    const std::size_t slash = path.rfind('/');
    return slash == std::string::npos ? std::string()
                                      : path.substr(0, slash);
}

/**
 * Module of the include target when the file set cannot resolve it:
 * a path-qualified include names a src module by its first component
 * ("common/rng.hpp" -> common); a bare filename is a same-directory
 * include and stays in the includer's module.
 */
std::string
textualModule(const std::string &includerModule, const std::string &quoted)
{
    const std::size_t slash = quoted.find('/');
    if (slash == std::string::npos)
        return includerModule;
    const std::string head = quoted.substr(0, slash);
    const auto it = layerTable().find(head);
    // Only src modules are addressable by a path-qualified quoted
    // include; bench/tests/... are never include roots.
    if (it != layerTable().end() && it->second <= 5)
        return head;
    return std::string();
}

} // namespace

std::vector<IncludeRef>
extractIncludes(const std::string &file, const std::vector<FullTok> &pp)
{
    std::vector<IncludeRef> refs;
    for (std::size_t i = 0; i + 2 < pp.size(); ++i)
        if (pp[i].kind == 'p' && pp[i].text == "#" &&
            pp[i + 1].kind == 'i' && pp[i + 1].text == "include" &&
            pp[i + 2].kind == 's')
            refs.push_back({file, pp[i].line, pp[i + 2].text});
    return refs;
}

std::string
moduleOf(const std::string &path)
{
    const std::string head = firstComponent(path);
    if (head == "src") {
        const std::size_t slash = path.find('/');
        if (slash == std::string::npos)
            return std::string();
        const std::string sub = firstComponent(path.substr(slash + 1));
        const auto it = layerTable().find(sub);
        return (it != layerTable().end() && it->second <= 5)
                   ? sub
                   : std::string();
    }
    const auto it = layerTable().find(head);
    return (it != layerTable().end() && it->second >= 6)
               ? head
               : std::string();
}

int
layerRank(const std::string &module)
{
    const auto it = layerTable().find(module);
    return it == layerTable().end() ? -1 : it->second;
}

std::string
resolveInclude(const std::string &includer, const std::string &quoted,
               const std::set<std::string> &files)
{
    const std::string dir = dirName(includer);
    const std::string candidates[] = {
        dir.empty() ? quoted : dir + "/" + quoted,
        "src/" + quoted,
        "tools/rsin_lint/" + quoted,
    };
    for (const std::string &candidate : candidates)
        if (files.count(candidate))
            return candidate;
    return std::string();
}

std::vector<Finding>
checkLayering(const std::vector<IncludeRef> &includes,
              const std::set<std::string> &files)
{
    std::vector<Finding> out;
    for (const IncludeRef &ref : includes) {
        const std::string from = moduleOf(ref.file);
        if (from.empty())
            continue;
        const std::string resolved =
            resolveInclude(ref.file, ref.quoted, files);
        const std::string to = resolved.empty()
                                   ? textualModule(from, ref.quoted)
                                   : moduleOf(resolved);
        if (to.empty() || to == from)
            continue;
        const int fromRank = layerRank(from);
        const int toRank = layerRank(to);
        if (toRank < fromRank)
            continue; // depending downward is what layers are for
        std::ostringstream msg;
        msg << "#include \"" << ref.quoted << "\": module '" << from
            << "' (layer " << fromRank << ") may not depend on '" << to
            << "' (layer " << toRank << "); ";
        if (toRank == fromRank)
            msg << "they are independent siblings in the layer DAG";
        else
            msg << "the dependency points up the layer DAG";
        msg << " -- move the shared code down a layer or invert the "
               "dependency (docs/STATIC_ANALYSIS.md has the DAG)";
        out.push_back({ref.file, ref.line, "R6", msg.str()});
    }
    return out;
}

std::vector<Finding>
checkCycles(const std::vector<IncludeRef> &includes,
            const std::set<std::string> &files)
{
    // File-level adjacency over includes that resolve inside the set.
    struct Edge
    {
        std::string to;
        std::size_t line;
    };
    std::map<std::string, std::vector<Edge>> edges;
    for (const IncludeRef &ref : includes) {
        const std::string resolved =
            resolveInclude(ref.file, ref.quoted, files);
        if (resolved.empty() || resolved == ref.file)
            continue;
        edges[ref.file].push_back({resolved, ref.line});
    }

    // Tarjan strongly-connected components; any SCC with more than one
    // node contains at least one include cycle.
    std::map<std::string, std::size_t> index, low, component;
    std::vector<std::string> stack;
    std::set<std::string> onStack;
    std::size_t counter = 0;
    std::size_t componentCount = 0;
    std::map<std::size_t, std::vector<std::string>> members;

    std::function<void(const std::string &)> connect =
        [&](const std::string &node) {
            index[node] = low[node] = counter++;
            stack.push_back(node);
            onStack.insert(node);
            const auto it = edges.find(node);
            if (it != edges.end()) {
                for (const Edge &edge : it->second) {
                    const std::string &next = edge.to;
                    if (!index.count(next)) {
                        connect(next);
                        low[node] = std::min(low[node], low[next]);
                    } else if (onStack.count(next)) {
                        low[node] =
                            std::min(low[node], index[next]);
                    }
                }
            }
            if (low[node] == index[node]) {
                const std::size_t id = componentCount++;
                while (true) {
                    const std::string top = stack.back();
                    stack.pop_back();
                    onStack.erase(top);
                    component[top] = id;
                    members[id].push_back(top);
                    if (top == node)
                        break;
                }
            }
        };
    for (const auto &entry : edges)
        if (!index.count(entry.first))
            connect(entry.first);

    std::vector<Finding> out;
    for (auto &entry : members) {
        std::vector<std::string> &scc = entry.second;
        if (scc.size() < 2)
            continue;
        std::sort(scc.begin(), scc.end());
        const std::string &anchor = scc.front();

        // Reconstruct one concrete cycle: DFS inside the SCC from the
        // anchor back to the anchor.
        std::vector<const Edge *> path;
        std::set<std::string> visited;
        std::function<bool(const std::string &)> walk =
            [&](const std::string &node) {
                const auto eit = edges.find(node);
                if (eit == edges.end())
                    return false;
                for (const Edge &edge : eit->second) {
                    if (component[edge.to] != entry.first)
                        continue;
                    path.push_back(&edge);
                    if (edge.to == anchor)
                        return true;
                    if (visited.insert(edge.to).second &&
                        walk(edge.to))
                        return true;
                    path.pop_back();
                }
                return false;
            };
        if (!walk(anchor))
            continue; // unreachable for a well-formed SCC
        std::ostringstream msg;
        msg << "include cycle: " << anchor;
        for (const Edge *edge : path)
            msg << " -> " << edge->to;
        msg << " -- break the loop with a forward declaration or by "
               "moving the shared type down a layer";
        out.push_back({anchor, path.front()->line, "R7", msg.str()});
    }
    return out;
}

} // namespace lint
} // namespace rsin
