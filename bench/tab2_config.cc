/**
 * Tab. II — The simulated CPU model configuration, printed from the
 * single ChipConfig every experiment runs against.
 */

#include <cstdio>

#include "bench_util.hh"
#include "core/chip_config.hh"

using namespace qei;
using namespace qei::bench;

namespace {

using validate::Expectation;

/** Paper expectations for the Tab. II configuration constants. */
validate::Suite
paperExpectations()
{
    validate::Suite suite;
    suite.title = "Tab. II — simulated CPU model configuration";
    suite.preamble =
        "Configuration constants are copied from the paper's table, "
        "so every check is exact: any drift means the model no "
        "longer simulates the paper's machine.";
    suite.expectations.push_back(Expectation::exact(
        "cores", "Tab. II", "simulated core count", "config.cores",
        "", 24.0));
    suite.expectations.push_back(Expectation::exact(
        "issue-width", "Tab. II", "out-of-order issue width",
        "config.issue_width", "", 4.0));
    suite.expectations.push_back(Expectation::exact(
        "rob-entries", "Tab. II", "reorder-buffer entries",
        "config.rob_entries", "", 224.0));
    suite.expectations.push_back(Expectation::exact(
        "load-queue", "Tab. II", "load-queue entries",
        "config.load_queue_entries", "", 72.0));
    suite.expectations.push_back(Expectation::exact(
        "qst-per-accel", "Sec. IV-B",
        "QST entries per accelerator (Core/CHA schemes)",
        "config.qst_entries_per_accel", "", 10.0));
    suite.expectations.push_back(Expectation::exact(
        "qst-device", "Sec. IV-B",
        "QST entries on the device accelerator (Device schemes)",
        "config.qst_entries_device", "", 240.0));
    return suite;
}

} // namespace

int
main(int argc, char** argv)
{
    BenchReport report("tab2_config", parseBenchArgs(argc, argv));
    std::printf("=== Tab. II: simulated CPU model configuration ===\n");
    const ChipConfig chip;
    std::fputs(chip.describe().c_str(), stdout);
    std::printf("QST entries       : %d per accelerator "
                "(Core/CHA schemes), %d total (Device schemes)\n",
                chip.qei.qstEntriesPerAccel, chip.qei.qstEntriesDevice);

    Json config = Json::object();
    config["description"] = chip.describe();
    config["cores"] = chip.memory.cores;
    config["issue_width"] = chip.core.issueWidth;
    config["rob_entries"] = chip.core.robEntries;
    config["load_queue_entries"] = chip.core.loadQueueEntries;
    config["qst_entries_per_accel"] = chip.qei.qstEntriesPerAccel;
    config["qst_entries_device"] = chip.qei.qstEntriesDevice;
    report.data()["config"] = std::move(config);
    report.setValidation(paperExpectations());
    return report.finish() ? 0 : 1;
}
