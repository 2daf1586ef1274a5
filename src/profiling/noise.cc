#include "noise.hh"

#include "util/logging.hh"

namespace twocs::profiling {

NoiseModel::NoiseModel(double rel_stddev, std::uint64_t seed)
    : relStddev_(rel_stddev), rng_(seed)
{
    noiseSigma(rel_stddev); // rejects a stddev no draw could use
}

Profile
NoiseModel::perturb(const Profile &profile)
{
    Profile out;
    for (ProfileRecord rec : profile.records()) {
        rec.duration *= rng_.noiseFactor(relStddev_);
        out.add(std::move(rec));
    }
    return out;
}

Profile
NoiseModel::averageOfRuns(const Profile &profile, int runs)
{
    fatalIf(runs < 1, "averageOfRuns() needs at least one run");

    std::vector<double> sums(profile.size(), 0.0);
    for (int r = 0; r < runs; ++r) {
        const Profile noisy = perturb(profile);
        for (std::size_t i = 0; i < noisy.size(); ++i)
            sums[i] += noisy.records()[i].duration;
    }

    Profile out;
    for (std::size_t i = 0; i < profile.size(); ++i) {
        ProfileRecord rec = profile.records()[i];
        rec.duration = sums[i] / runs;
        out.add(std::move(rec));
    }
    return out;
}

} // namespace twocs::profiling
